package dist

import "fmt"

// Cardinalities is a per-processor element-count profile: Cardinalities[i]
// is n_i > 0, summing to n.
type Cardinalities []int

// N returns the total number of elements.
func (c Cardinalities) N() int {
	n := 0
	for _, v := range c {
		n += v
	}
	return n
}

// Max returns n_max, the largest cardinality.
func (c Cardinalities) Max() int {
	m := 0
	for _, v := range c {
		if v > m {
			m = v
		}
	}
	return m
}

// Max2 returns n_max2, the second largest cardinality (equal to Max when the
// maximum is attained twice). For a single processor it returns 0.
func (c Cardinalities) Max2() int {
	m1, m2 := 0, 0
	for _, v := range c {
		if v > m1 {
			m1, m2 = v, m1
		} else if v > m2 {
			m2 = v
		}
	}
	return m2
}

// Validate checks n_i > 0 for all i.
func (c Cardinalities) Validate() error {
	if len(c) == 0 {
		return fmt.Errorf("dist: empty cardinality profile")
	}
	for i, v := range c {
		if v < 1 {
			return fmt.Errorf("dist: processor %d has cardinality %d (paper assumes n_i > 0)", i, v)
		}
	}
	return nil
}

// Even returns the even profile: n/p elements per processor. n must be a
// multiple of p.
func Even(n, p int) Cardinalities {
	if n%p != 0 {
		panic("dist: Even requires p | n")
	}
	c := make(Cardinalities, p)
	for i := range c {
		c[i] = n / p
	}
	return c
}

// NearlyEven spreads n over p processors as evenly as possible (first n%p
// processors get one extra). Requires n >= p.
func NearlyEven(n, p int) Cardinalities {
	if n < p {
		panic("dist: n < p")
	}
	c := make(Cardinalities, p)
	for i := range c {
		c[i] = n / p
		if i < n%p {
			c[i]++
		}
	}
	return c
}

// OneHeavy gives a single processor `frac` (0 < frac < 1) of the elements
// and spreads the rest nearly evenly; used to drive n_max toward the cycle
// lower bound of Theorem 4. Requires enough elements for everyone to get at
// least one.
func OneHeavy(n, p int, frac float64) Cardinalities {
	heavy := int(float64(n) * frac)
	if heavy < 1 {
		heavy = 1
	}
	if heavy > n-(p-1) {
		heavy = n - (p - 1)
	}
	rest := n - heavy
	c := make(Cardinalities, p)
	c[0] = heavy
	for i := 1; i < p; i++ {
		c[i] = rest / (p - 1)
		if i-1 < rest%(p-1) {
			c[i]++
		}
	}
	return c
}

// RandomComposition draws a random composition of n into p positive parts.
func RandomComposition(r *RNG, n, p int) Cardinalities {
	if n < p {
		panic("dist: n < p")
	}
	// Stars and bars: choose p-1 distinct cut points in [1, n-1].
	cuts := map[int]bool{}
	for len(cuts) < p-1 {
		cuts[1+r.Intn(n-1)] = true
	}
	points := make([]int, 0, p+1)
	points = append(points, 0)
	for c := range cuts {
		points = append(points, c)
	}
	points = append(points, n)
	// Insertion sort the small cut list.
	for i := 1; i < len(points); i++ {
		v := points[i]
		j := i - 1
		for j >= 0 && points[j] > v {
			points[j+1] = points[j]
			j--
		}
		points[j+1] = v
	}
	c := make(Cardinalities, p)
	for i := 0; i < p; i++ {
		c[i] = points[i+1] - points[i]
	}
	return c
}

// Geometric gives processor i roughly n/2^(i+1) elements (heavily skewed),
// with a floor of one element each.
func Geometric(n, p int) Cardinalities {
	c := make(Cardinalities, p)
	remaining := n - p // reserve 1 per processor
	for i := range c {
		c[i] = 1
		take := remaining / 2
		if i == p-1 {
			take = remaining
		}
		c[i] += take
		remaining -= take
	}
	return c
}

// ByName builds the named profile of n elements over p processors: "even"
// (NearlyEven), "random" (a RandomComposition drawn from seed), "oneheavy"
// (OneHeavy with frac heavy) or "geometric": the -dist flag of mcbsort and
// mcbselect.
func ByName(name string, n, p int, heavy float64, seed uint64) (Cardinalities, error) {
	if n < p {
		return nil, fmt.Errorf("need n >= p (every processor holds at least one element)")
	}
	switch name {
	case "even":
		return NearlyEven(n, p), nil
	case "random":
		return RandomComposition(NewRNG(seed^0xabcd), n, p), nil
	case "oneheavy":
		return OneHeavy(n, p, heavy), nil
	case "geometric":
		return Geometric(n, p), nil
	}
	return nil, fmt.Errorf("unknown distribution %q", name)
}

// Values generates element values for a cardinality profile, returning one
// slice per processor. All elements are distinct (the paper's w.l.o.g.
// assumption), drawn as a random permutation of [0, n) mapped through an
// affine spread to exercise larger magnitudes.
func Values(r *RNG, c Cardinalities) [][]int64 {
	n := c.N()
	perm := r.Perm(n)
	out := make([][]int64, len(c))
	idx := 0
	for i, ni := range c {
		out[i] = make([]int64, ni)
		for j := 0; j < ni; j++ {
			out[i][j] = int64(perm[idx])*3 + 1
			idx++
		}
	}
	return out
}

// ValuesWithDuplicates generates values with heavy duplication (values drawn
// from a domain of size max(n/4, 2)), exercising the tie-breaking paths.
func ValuesWithDuplicates(r *RNG, c Cardinalities) [][]int64 {
	n := c.N()
	domain := n / 4
	if domain < 2 {
		domain = 2
	}
	out := make([][]int64, len(c))
	for i, ni := range c {
		out[i] = make([]int64, ni)
		for j := 0; j < ni; j++ {
			out[i][j] = int64(r.Intn(domain))
		}
	}
	return out
}

// AdversarialCircular builds the Theorem 3 lower-bound distribution: the
// sorted order is dealt circularly over the processors (one element at a
// time to each processor that still has capacity), so no two neighbors in
// the sorted prefix share a processor. Values are descending from n (the
// paper's rank-1-is-largest order).
func AdversarialCircular(c Cardinalities) [][]int64 {
	n := c.N()
	out := make([][]int64, len(c))
	fill := make([]int, len(c))
	for i, ni := range c {
		out[i] = make([]int64, ni)
		_ = ni
	}
	rank := 0
	for rank < n {
		for i := range c {
			if fill[i] < c[i] && rank < n {
				out[i][fill[i]] = int64(n - rank) // descending values
				fill[i]++
				rank++
			}
		}
	}
	return out
}

// Flatten concatenates per-processor slices into one slice (copying).
func Flatten(parts [][]int64) []int64 {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]int64, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// AdversarialAlternating builds the Theorem 4 lower-bound distribution for
// n_max <= n/2: one heavy processor P_max holds every even-ranked element of
// the sorted prefix N[1, 2*n_max] while the odd ranks go to the others, so
// P_max must touch a message in at least n_max cycles. heavy selects the
// index of P_max; the remaining elements are dealt circularly.
func AdversarialAlternating(c Cardinalities, heavy int) [][]int64 {
	n := c.N()
	nmax := c[heavy]
	out := make([][]int64, len(c))
	fill := make([]int, len(c))
	for i, ni := range c {
		out[i] = make([]int64, ni)
	}
	place := func(proc int, val int64) {
		out[proc][fill[proc]] = val
		fill[proc]++
	}
	rank := 0 // 0-based descending rank; value n-rank
	other := 0
	// Pairing stops when either side runs out of capacity (if n_max > n/2,
	// only n - n_max pairs exist — exactly Theorem 4's min{n_max, n-n_max}).
	pairs := min(nmax, n-nmax)
	for j := 0; j < pairs; j++ {
		// Odd rank (2j) to some other processor, even rank (2j+1) to heavy.
		for other == heavy || fill[other] >= c[other] {
			other = (other + 1) % len(c)
		}
		place(other, int64(n-rank))
		rank++
		place(heavy, int64(n-rank))
		rank++
	}
	// Deal the remainder circularly over whatever capacity is left.
	for rank < n {
		for i := range c {
			if fill[i] < c[i] && rank < n {
				place(i, int64(n-rank))
				rank++
			}
		}
	}
	return out
}
