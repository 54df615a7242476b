package core

import (
	"fmt"
	"sync"

	"mcbnet/internal/matrix"
	"mcbnet/internal/schedule"
)

// Schedules are pure functions of globally known quantities, so in the real
// network every processor computes them independently. In the simulator all
// processors share one address space, so we memoize: the first processor to
// need a schedule builds it, and the rest wait for that build and reuse it.
// This changes no observable behaviour (cycles/messages), only host CPU time
// and memory.
var schedCache sync.Map // string key -> *schedEntry

// schedEntry is one memoized schedule, built at most once.
type schedEntry struct {
	once sync.Once
	s    *schedule.Schedule
}

// cachedSchedule returns the schedule memoized under key, calling build
// exactly once however many processors ask for a cold key at the same time.
func cachedSchedule(key string, build func() *schedule.Schedule) *schedule.Schedule {
	v, ok := schedCache.Load(key)
	if !ok {
		v, _ = schedCache.LoadOrStore(key, new(schedEntry))
	}
	e := v.(*schedEntry)
	e.once.Do(func() { e.s = build() })
	return e.s
}

func scheduleFor(sh matrix.Shape, kind schedule.TransformKind) *schedule.Schedule {
	return cachedSchedule(fmt.Sprintf("t/%d/%d/%d", sh.M, sh.K, kind), func() *schedule.Schedule {
		return schedule.ForTransform(sh, kind)
	})
}

// recSchedule builds (and memoizes) the processor-granularity schedule for
// one transformation of the recursive Columnsort: a sub-network of span
// processors, each holding ni consecutive positions, viewed as c columns of
// length m = span*ni/c, routed over `chans` channels. Positions, owners and
// channels in the returned schedule are all relative to the sub-network, so
// sibling sub-networks (which are isomorphic) share the identical schedule.
func recSchedule(span, c, ni, chans int, kind schedule.TransformKind) *schedule.Schedule {
	return cachedSchedule(fmt.Sprintf("r/%d/%d/%d/%d/%d", span, c, ni, chans, kind), func() *schedule.Schedule {
		sh := matrix.Shape{M: span * ni / c, K: c}
		owner := func(pos int) int { return pos / ni }
		return schedule.Route(schedule.TransformMoves(sh, kindTransform(kind)), owner, owner, chans)
	})
}

// kindTransform maps a TransformKind to its permutation.
func kindTransform(kind schedule.TransformKind) matrix.Transform {
	switch kind {
	case schedule.KindTranspose:
		return matrix.Transpose
	case schedule.KindUnDiagonalize:
		return matrix.UnDiagonalize
	case schedule.KindUpShift:
		return matrix.UpShift
	case schedule.KindDownShift:
		return matrix.DownShift
	case schedule.KindUntranspose:
		return matrix.Untranspose
	}
	panic("core: bad transform kind")
}
