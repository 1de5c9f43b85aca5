// Package spec defines the 21 synthetic benchmark profiles standing in for
// the C/C++ SPEC CPU2006 programs of the paper's evaluation (§6.1), plus the
// lbm adversary. Each profile composes the reference-stream generators of
// internal/workload and an execution profile (memory-instruction fraction,
// base CPI, instruction count) calibrated so that:
//
//   - the *ordering* of co-location sensitivity matches the paper's
//     Figure 1 (mcf/lbm/libquantum/omnetpp/soplex heavily penalized;
//     namd/povray/calculix/gromacs nearly unaffected), and
//   - working-set sizes relative to the scaled cache hierarchy preserve
//     each benchmark's class: private-cache-resident, L3-resident, or
//     L3-exceeding.
//
// Footprints below are denominated in 64-byte lines against the scaled
// hierarchy of mem.DefaultHierarchyConfig: L1 = 128 lines, L2 = 1024 lines,
// shared L3 = 8192 lines.
package spec

import (
	"fmt"
	"sort"

	"caer/internal/machine"
	"caer/internal/workload"
)

// Sensitivity is a benchmark's qualitative cross-core interference
// sensitivity class (paper §6.3): how much co-location with a cache-hungry
// adversary hurts it.
//
//caer:enum
type Sensitivity int

const (
	// Insensitive: working set fits the private caches; co-location has
	// little effect (namd-like).
	Insensitive Sensitivity = iota
	// Moderate: working set uses the shared L3 but tolerates sharing
	// (bzip2-like).
	Moderate
	// Sensitive: working set needs most or more of the L3; co-location is
	// very costly (mcf-like).
	Sensitive
)

// String names the class.
func (s Sensitivity) String() string {
	switch s {
	case Insensitive:
		return "insensitive"
	case Moderate:
		return "moderate"
	case Sensitive:
		return "sensitive"
	default:
		return fmt.Sprintf("Sensitivity(%d)", int(s))
	}
}

// Profile is one benchmark's identity: a reference-stream builder plus
// execution parameters.
type Profile struct {
	Name  string
	Class Sensitivity
	Exec  machine.ExecProfile
	// NewGen builds the benchmark's reference stream with its footprint
	// based at `base` (so co-located benchmarks never share data, as in the
	// paper's multiprogrammed — not multithreaded — workloads).
	NewGen func(base uint64, seed int64) workload.Generator
}

// NewProcess instantiates the benchmark as a runnable process whose
// footprint starts at base.
func (p Profile) NewProcess(base uint64, seed int64) *machine.Process {
	return machine.NewProcess(p.Name, p.Exec, p.NewGen(base, seed), seed)
}

// Batch returns a copy of the profile that never self-terminates, for use
// as a relaunch-forever batch service.
func (p Profile) Batch() Profile {
	p.Exec.Instructions = 0
	return p
}

var profiles = []Profile{
	{
		// perlbench: interpreter with a hot opcode loop and occasional
		// excursions over larger tables.
		Name:  "400.perlbench",
		Class: Insensitive,
		Exec:  machine.ExecProfile{MemFraction: 0.25, BaseCPI: 0.8, Instructions: 9_000_000},
		NewGen: func(base uint64, seed int64) workload.Generator {
			return workload.NewHotCold(
				workload.NewUniform(base, 512, 0.1),
				workload.NewUniform(base+1<<16, 1024, 0.05),
				0.95)
		},
	},
	{
		// bzip2: block-sorting compressor alternating sequential block scans
		// and random suffix references.
		Name:  "401.bzip2",
		Class: Moderate,
		Exec:  machine.ExecProfile{MemFraction: 0.3, BaseCPI: 0.8, Instructions: 6_000_000},
		NewGen: func(base uint64, seed int64) workload.Generator {
			return workload.NewPhased([]workload.Phase{
				{Gen: workload.NewStream(base, 3000, 1, 0.3), Duration: 60_000},
				{Gen: workload.NewUniform(base, 2048, 0.1), Duration: 40_000},
			})
		},
	},
	{
		// gcc: compiler with large, phase-varying IR working sets.
		Name:  "403.gcc",
		Class: Moderate,
		Exec:  machine.ExecProfile{MemFraction: 0.3, BaseCPI: 0.8, Instructions: 5_000_000},
		NewGen: func(base uint64, seed int64) workload.Generator {
			return workload.NewPhased([]workload.Phase{
				{Gen: workload.NewUniform(base, 2560, 0.15), Duration: 50_000},
				{Gen: workload.NewHotCold(
					workload.NewUniform(base+1<<16, 640, 0.1),
					workload.NewUniform(base, 2560, 0.1), 0.85), Duration: 50_000},
			})
		},
	},
	{
		// mcf: network simplex alternating resident node/arc traversals with
		// pricing sweeps over the full arc array (beyond the shared cache) —
		// the source of the pronounced LLC-miss phases in Figure 3 and the
		// most contention-sensitive benchmark in Figure 1.
		Name:  "429.mcf",
		Class: Sensitive,
		Exec:  machine.ExecProfile{MemFraction: 0.45, BaseCPI: 0.7, Instructions: 1_600_000},
		NewGen: func(base uint64, seed int64) workload.Generator {
			return workload.NewPhased([]workload.Phase{
				{Gen: workload.NewHotCold(
					workload.NewUniform(base+1<<20, 1024, 0.2),
					workload.NewUniform(base, 5120, 0.1),
					0.3), Duration: 140_000},
				{Gen: workload.NewStream(base+1<<22, 10240, 1, 0.1), Duration: 45_000},
			})
		},
	},
	{
		// gobmk: game tree search over board-sized state.
		Name:  "445.gobmk",
		Class: Insensitive,
		Exec:  machine.ExecProfile{MemFraction: 0.25, BaseCPI: 0.9, Instructions: 9_000_000},
		NewGen: func(base uint64, seed int64) workload.Generator {
			return workload.NewHotCold(
				workload.NewUniform(base, 768, 0.15),
				workload.NewUniform(base+1<<16, 768, 0.05),
				0.97)
		},
	},
	{
		// hmmer: profile HMM scoring, tight L2-resident tables.
		Name:  "456.hmmer",
		Class: Insensitive,
		Exec:  machine.ExecProfile{MemFraction: 0.3, BaseCPI: 0.7, Instructions: 10_000_000},
		NewGen: func(base uint64, seed int64) workload.Generator {
			return workload.NewStream(base, 512, 1, 0.2)
		},
	},
	{
		// sjeng: chess search, small hash-table-dominated footprint.
		Name:  "458.sjeng",
		Class: Insensitive,
		Exec:  machine.ExecProfile{MemFraction: 0.25, BaseCPI: 0.9, Instructions: 9_000_000},
		NewGen: func(base uint64, seed int64) workload.Generator {
			return workload.NewUniform(base, 896, 0.15)
		},
	},
	{
		// libquantum: quantum register simulation streaming a vector larger
		// than the L3 on every gate application.
		Name:  "462.libquantum",
		Class: Sensitive,
		Exec:  machine.ExecProfile{MemFraction: 0.35, BaseCPI: 0.7, Instructions: 2_200_000},
		NewGen: func(base uint64, seed int64) workload.Generator {
			return workload.NewStream(base, 12288, 1, 0.35)
		},
	},
	{
		// h264ref: video encoder, hot macroblock kernel with reference-frame
		// excursions.
		Name:  "464.h264ref",
		Class: Insensitive,
		Exec:  machine.ExecProfile{MemFraction: 0.3, BaseCPI: 0.75, Instructions: 9_000_000},
		NewGen: func(base uint64, seed int64) workload.Generator {
			return workload.NewHotCold(
				workload.NewStream(base, 640, 1, 0.25),
				workload.NewUniform(base+1<<16, 1024, 0.1),
				0.95)
		},
	},
	{
		// omnetpp: discrete event simulation referencing heap-allocated
		// events scattered across a footprint just beyond the shared cache.
		Name:  "471.omnetpp",
		Class: Sensitive,
		Exec:  machine.ExecProfile{MemFraction: 0.4, BaseCPI: 0.8, Instructions: 2_000_000},
		NewGen: func(base uint64, seed int64) workload.Generator {
			return workload.NewUniform(base, 4608, 0.15)
		},
	},
	{
		// astar: path-finding over mid-sized graphs.
		Name:  "473.astar",
		Class: Moderate,
		Exec:  machine.ExecProfile{MemFraction: 0.35, BaseCPI: 0.8, Instructions: 4_000_000},
		NewGen: func(base uint64, seed int64) workload.Generator {
			return workload.NewHotCold(
				workload.NewUniform(base+1<<20, 512, 0.15),
				workload.NewUniform(base, 3584, 0.1),
				0.5)
		},
	},
	{
		// xalancbmk: XSLT processor with pronounced alternating phases —
		// the Figure 3 phase-plot benchmark.
		Name:  "483.xalancbmk",
		Class: Sensitive,
		Exec:  machine.ExecProfile{MemFraction: 0.35, BaseCPI: 0.8, Instructions: 3_000_000},
		NewGen: func(base uint64, seed int64) workload.Generator {
			return workload.NewPhased([]workload.Phase{
				{Gen: workload.NewHotCold(
					workload.NewUniform(base, 5120, 0.15),
					workload.NewStream(base+1<<21, 12288, 1, 0.1),
					0.8), Duration: 120_000},
				{Gen: workload.NewStream(base+1<<20, 512, 1, 0.1), Duration: 120_000},
			})
		},
	},
	{
		// milc: lattice QCD — tight stencil kernels over small per-site
		// state plus scattered gauge-field lookups spanning the shared
		// cache.
		Name:  "433.milc",
		Class: Sensitive,
		Exec:  machine.ExecProfile{MemFraction: 0.4, BaseCPI: 0.75, Instructions: 2_200_000},
		NewGen: func(base uint64, seed int64) workload.Generator {
			return workload.NewHotCold(
				workload.NewStencil(base+1<<20, 192, 4, 0.3),
				workload.NewUniform(base, 5120, 0.25),
				0.4)
		},
	},
	{
		// gromacs: molecular dynamics over compact neighbour lists.
		Name:  "435.gromacs",
		Class: Insensitive,
		Exec:  machine.ExecProfile{MemFraction: 0.3, BaseCPI: 0.7, Instructions: 10_000_000},
		NewGen: func(base uint64, seed int64) workload.Generator {
			return workload.NewStencil(base, 192, 4, 0.2)
		},
	},
	{
		// namd: molecular dynamics, famously cache-friendly.
		Name:  "444.namd",
		Class: Insensitive,
		Exec:  machine.ExecProfile{MemFraction: 0.3, BaseCPI: 0.65, Instructions: 11_000_000},
		NewGen: func(base uint64, seed int64) workload.Generator {
			return workload.NewStream(base, 448, 1, 0.2)
		},
	},
	{
		// dealII: finite elements, mostly resident with sparse-matrix
		// excursions.
		Name:  "447.dealII",
		Class: Insensitive,
		Exec:  machine.ExecProfile{MemFraction: 0.3, BaseCPI: 0.75, Instructions: 8_000_000},
		NewGen: func(base uint64, seed int64) workload.Generator {
			return workload.NewHotCold(
				workload.NewStream(base, 512, 1, 0.2),
				workload.NewUniform(base+1<<16, 1024, 0.1),
				0.9)
		},
	},
	{
		// soplex: simplex LP solver scanning large sparse matrices.
		Name:  "450.soplex",
		Class: Sensitive,
		Exec:  machine.ExecProfile{MemFraction: 0.4, BaseCPI: 0.8, Instructions: 2_000_000},
		NewGen: func(base uint64, seed int64) workload.Generator {
			return workload.NewUniform(base, 5120, 0.1)
		},
	},
	{
		// povray: ray tracer, tiny resident scene graph.
		Name:  "453.povray",
		Class: Insensitive,
		Exec:  machine.ExecProfile{MemFraction: 0.2, BaseCPI: 0.8, Instructions: 10_000_000},
		NewGen: func(base uint64, seed int64) workload.Generator {
			return workload.NewUniform(base, 320, 0.1)
		},
	},
	{
		// calculix: structural FEM with small stencil kernels.
		Name:  "454.calculix",
		Class: Insensitive,
		Exec:  machine.ExecProfile{MemFraction: 0.3, BaseCPI: 0.7, Instructions: 10_000_000},
		NewGen: func(base uint64, seed int64) workload.Generator {
			return workload.NewStencil(base, 256, 2, 0.2)
		},
	},
	{
		// lbm: lattice-Boltzmann — the paper's adversary. Streams a grid
		// twice the L3 with heavy writes, with a resident set of
		// distribution-function sites that enjoys reuse when run alone and
		// is destroyed by a co-runner (so lbm itself is also the most
		// slowed-down benchmark, as in the paper's Figure 1).
		Name:  "470.lbm",
		Class: Sensitive,
		Exec:  machine.ExecProfile{MemFraction: 0.45, BaseCPI: 0.7, Instructions: 2_000_000},
		NewGen: func(base uint64, seed int64) workload.Generator {
			return workload.NewHotCold(
				workload.NewUniform(base+1<<20, 5120, 0.3),
				workload.NewStream(base, 16384, 1, 0.4),
				0.45)
		},
	},
	{
		// sphinx3: speech recognition alternating acoustic-model scans and
		// small search phases.
		Name:  "482.sphinx3",
		Class: Sensitive,
		Exec:  machine.ExecProfile{MemFraction: 0.35, BaseCPI: 0.8, Instructions: 2_600_000},
		NewGen: func(base uint64, seed int64) workload.Generator {
			return workload.NewPhased([]workload.Phase{
				{Gen: workload.NewUniform(base, 4608, 0.1), Duration: 100_000},
				{Gen: workload.NewStream(base+1<<20, 1024, 1, 0.1), Duration: 60_000},
			})
		},
	},
}

// paperOrder lists benchmarks in the order the paper's figures use
// (integer benchmarks first, then floating point).
var paperOrder = []string{
	"400.perlbench", "401.bzip2", "403.gcc", "429.mcf", "445.gobmk",
	"456.hmmer", "458.sjeng", "462.libquantum", "464.h264ref",
	"471.omnetpp", "473.astar", "483.xalancbmk",
	"433.milc", "435.gromacs", "444.namd", "447.dealII", "450.soplex",
	"453.povray", "454.calculix", "470.lbm", "482.sphinx3",
}

// All returns every benchmark profile in the paper's figure order.
func All() []Profile {
	out := make([]Profile, 0, len(paperOrder))
	for _, n := range paperOrder {
		p, ok := ByName(n)
		if !ok {
			panic("spec: paperOrder references unknown profile " + n)
		}
		out = append(out, p)
	}
	return out
}

// Names returns every benchmark name in the paper's figure order.
func Names() []string {
	out := make([]string, len(paperOrder))
	copy(out, paperOrder)
	return out
}

// ByName looks a profile up by its full name (e.g. "429.mcf") or its short
// name (e.g. "mcf").
func ByName(name string) (Profile, bool) {
	for _, p := range profiles {
		if p.Name == name {
			return p, true
		}
	}
	for _, p := range profiles {
		if shortName(p.Name) == name {
			return p, true
		}
	}
	return Profile{}, false
}

// LBM returns the paper's batch adversary profile.
func LBM() Profile {
	p, ok := ByName("470.lbm")
	if !ok {
		panic("spec: lbm profile missing")
	}
	return p
}

// ByClass returns profiles of the given sensitivity class, sorted by name.
func ByClass(c Sensitivity) []Profile {
	var out []Profile
	for _, p := range All() {
		if p.Class == c {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func shortName(full string) string {
	for i := 0; i < len(full); i++ {
		if full[i] == '.' {
			return full[i+1:]
		}
	}
	return full
}

// ShortName strips the SPEC numeric prefix: "429.mcf" -> "mcf".
func ShortName(full string) string { return shortName(full) }
