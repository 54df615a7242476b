package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile is a runtime/pprof CPU profile kept in memory.
type cpuProfile struct {
	buf     bytes.Buffer
	samples int
}

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns each module's share of its samples, in
// percent (see moduleShares).
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("decode CPU profile: %w", err)
	}
	shares, n := moduleShares(stacks)
	p.samples = n
	return shares, nil
}

// moduleOfPackage maps a package path to the ledger module that owns it. A
// package not listed (the standard library's sort, sync, bufio, net, ...)
// belongs to whichever module called it.
var moduleOfPackage = map[string]string{
	"main":                                  "bench",
	"mcbnet/benchmark":                      "bench", // the package's name in its test binary
	"mcbnet/internal/dist":                  "bench",
	"net/http":                              "http",
	"net/textproto":                         "http",
	"net/url":                               "http",
	"mime":                                  "http",
	"vendor/golang.org/x/net/http2/hpack":   "http",
	"vendor/golang.org/x/net/http/httpguts": "http",
	"encoding/json":                         "json",
	"mcbnet/internal/service":               "service",
	"mcbnet/internal/core":                  "core",
	"mcbnet/internal/matrix":                "core",
	"mcbnet/internal/mcb":                   "mcb",
	"mcbnet/internal/trace":                 "mcb",
	"mcbnet/internal/transport":             "mcb",
	"mcbnet/internal/seq":                   "seq",
	"mcbnet/internal/schedule":              "schedule",
	"mcbnet/internal/checkpoint":            "checkpoint",
	"mcbnet/internal/transport/tcp":         "tcp",
}

// gcFunctions are runtime entry points whose samples are garbage
// collection, wherever they sit in a stack (background mark workers,
// allocation assists, sweeping).
var gcFunctions = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.gcAssistAlloc1": true,
	"runtime.gcDrain":        true,
	"runtime.gcDrainN":       true,
	"runtime.markroot":       true,
	"runtime.scanobject":     true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.sweepone":       true,
	"runtime.gcStart":        true,
	"runtime._GC":            true,
}

// probeTypes are the benchmark's own layer wrappers. They sit between the
// layers they time (countingConn between the TCP client and the socket), so
// a sample passes through them to the module above.
var probeTypes = []string{"countingConn.", "timedTransport.", "timedStore.", "(*timedHandler)."}

func isProbe(fn, pkg string) bool {
	if moduleOfPackage[pkg] != "bench" || len(fn) <= len(pkg) {
		return false
	}
	for _, t := range probeTypes {
		if strings.HasPrefix(fn[len(pkg)+1:], t) {
			return true
		}
	}
	return false
}

// packageOf extracts the package path of a symbol such as
// "mcbnet/internal/mcb.(*engine).step" or "slices.SortFunc[...]".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if i := strings.IndexByte(fn[slash+1:], '.'); i >= 0 {
		return fn[:slash+1+i]
	}
	return fn
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/internal/")
}

// classify names the module a sampled stack (leaf first) is charged to:
// "gc" when garbage collection runs anywhere in it; otherwise the nearest
// frame, from the leaf up, in a module's package; "sched" for a stack made
// only of runtime frames (scheduler, idle, timers); "other" for the rest.
func classify(stack []string) string {
	for _, fn := range stack {
		if gcFunctions[fn] {
			return "gc"
		}
	}
	onlyRuntime := true
	for _, fn := range stack {
		pkg := packageOf(fn)
		if isProbe(fn, pkg) {
			continue
		}
		if m, ok := moduleOfPackage[pkg]; ok {
			return m
		}
		if !isRuntime(pkg) {
			onlyRuntime = false
		}
	}
	if onlyRuntime {
		return "sched"
	}
	return "other"
}

// moduleShares charges every sample to a module and returns each module's
// share in percent, plus the sample count.
func moduleShares(stacks []weightedStack) (map[string]float64, int) {
	total := int64(0)
	by := map[string]int64{}
	for _, s := range stacks {
		by[classify(s.frames)] += s.count
		total += s.count
	}
	out := map[string]float64{}
	for _, m := range cpuModules {
		out[m] = 0
		if total > 0 {
			out[m] = 100 * float64(by[m]) / float64(total)
		}
	}
	return out, int(total)
}

// weightedStack is one profile sample: function names leaf first, and its
// sample count.
type weightedStack struct {
	frames []string
	count  int64
}

// decodeProfile reads a gzipped profile.proto message (the format
// runtime/pprof writes) far enough to recover each sample's stack of
// function names. Field numbers follow github.com/google/pprof's
// proto/profile.proto.
func decodeProfile(data []byte) ([]weightedStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sampleRec struct {
		locs  []uint64
		value int64
	}
	var (
		samples []sampleRec
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string table index
		strs    []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sampleRec
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locs, w, v, b)
				case 2:
					if s.value == 0 {
						var vals []uint64
						if err := appendPacked(&vals, w, v, b); err != nil {
							return err
						}
						if len(vals) > 0 {
							s.value = int64(vals[0])
						}
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]weightedStack, 0, len(samples))
	for _, s := range samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if idx := fnName[fn]; idx >= 0 && int(idx) < len(strs) {
					frames = append(frames, strs[idx])
				}
			}
		}
		out = append(out, weightedStack{frames: frames, count: s.value})
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message. For varint fields v
// holds the value; for length-delimited fields b holds the bytes.
func eachField(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated integer field that may be packed (wire
// type 2) or one value at a time (wire type 0).
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
