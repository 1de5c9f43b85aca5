package main

// A minimal reader for the CPU profiles runtime/pprof writes (gzipped
// profile.proto), enough to fold samples into the repo's layers. The
// standard library writes these profiles but ships no reader.

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Field numbers of profile.proto.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

var errTruncated = errors.New("profile: truncated message")

// pbField is one decoded protobuf field: a varint, or the bytes of a
// length-delimited value.
type pbField struct {
	num   int
	wire  int
	value uint64
	bytes []byte
}

// pbFields decodes one message's top-level fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.value, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			f.value, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			f.value, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints returns a repeated integer field's values, packed or not.
func (f pbField) varints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.value}, nil
	}
	var out []uint64
	for b := f.bytes; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// cpuProfile is a decoded profile: each sample's stack as function names,
// leaf first, with its sample count.
type cpuProfile struct {
	stacks [][]string
	counts []int64
}

// parseProfile decodes a gzipped pprof CPU profile.
func parseProfile(r io.Reader) (*cpuProfile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	locFuncs := map[uint64][]uint64{}
	var samples []pbField
	for _, f := range top {
		switch f.num {
		case profStrings:
			strs = append(strs, string(f.bytes))
		case profFunction:
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range fs {
				switch g.num {
				case functionID:
					id = g.value
				case functionName:
					name = g.value
				}
			}
			funcName[id] = name
		case profLocation:
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var funcs []uint64
			for _, g := range fs {
				switch g.num {
				case locationID:
					id = g.value
				case locationLine:
					ls, err := pbFields(g.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == lineFunction {
							funcs = append(funcs, l.value)
						}
					}
				}
			}
			locFuncs[id] = funcs
		case profSample:
			samples = append(samples, f)
		}
	}
	name := func(fn uint64) string {
		if i := funcName[fn]; i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &cpuProfile{}
	for _, s := range samples {
		fs, err := pbFields(s.bytes)
		if err != nil {
			return nil, err
		}
		var stack []string
		var count int64
		for _, g := range fs {
			vs, err := g.varints()
			if err != nil {
				return nil, err
			}
			switch g.num {
			case sampleLocation:
				// A location's lines run innermost inlined call first.
				for _, loc := range vs {
					for _, fn := range locFuncs[loc] {
						stack = append(stack, name(fn))
					}
				}
			case sampleValue:
				if len(vs) > 0 && count == 0 {
					count = int64(vs[0])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		p.counts = append(p.counts, count)
	}
	return p, nil
}

// profileLayers names the layers a profile folds into, in report order.
var profileLayers = []string{"mem", "workload", "machine", "pmu", "caer", "sched", "fleet", "go", "other"}

// packageLayer maps a caer/internal package to its layer; "" means the
// package has no layer of its own and its time belongs to its caller.
var packageLayer = map[string]string{
	"mem":       "mem",
	"workload":  "workload",
	"machine":   "machine",
	"pmu":       "pmu",
	"comm":      "caer",
	"caer":      "caer",
	"sched":     "sched",
	"fleet":     "fleet",
	"slo":       "fleet",
	"telemetry": "fleet",
}

// goRuntimeWork marks the Go runtime's garbage collection and allocation.
var goRuntimeWork = []string{
	"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart",
	"runtime.gcMarkDone", "runtime.gcMarkTermination",
}

// layerOf attributes one stack (leaf first) to a layer: the Go runtime's
// GC and allocation, else the innermost caer/internal package that has a
// layer, else the Go runtime when the leaf is in it, else other.
func layerOf(stack []string) string {
	for _, fn := range stack {
		for _, g := range goRuntimeWork {
			if strings.HasPrefix(fn, g) {
				return "go"
			}
		}
		if pkg, ok := strings.CutPrefix(fn, "caer/internal/"); ok {
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			if l := packageLayer[pkg]; l != "" {
				return l
			}
		}
	}
	if len(stack) > 0 && strings.HasPrefix(stack[0], "runtime.") {
		return "go"
	}
	return "other"
}

// fold returns each layer's share of the profile's samples.
func (p *cpuProfile) fold() map[string]float64 {
	share := map[string]float64{}
	var total int64
	for i, st := range p.stacks {
		share[layerOf(st)] += float64(p.counts[i])
		total += p.counts[i]
	}
	if total > 0 {
		for l := range share {
			share[l] /= float64(total)
		}
	}
	return share
}

// samples is the profile's total sample count.
func (p *cpuProfile) samples() int64 {
	var n int64
	for _, c := range p.counts {
		n += c
	}
	return n
}
