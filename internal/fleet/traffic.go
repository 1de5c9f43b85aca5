package fleet

import (
	"fmt"
	"math"
	"math/rand"

	"caer/internal/spec"
)

// Curve selects the shape of the open-loop arrival-rate schedule the
// traffic driver follows.
//
//caer:enum
type Curve int

const (
	// CurveConstant holds the configured rate flat over the horizon — the
	// closed-form baseline (and, with Horizon 1, the "everything arrives
	// up front" shape the scheduled-mode identity pin uses).
	CurveConstant Curve = iota
	// CurveDiurnal ramps the rate through one full day-shaped sinusoid
	// over the horizon: quiet start, peak mid-horizon, quiet end.
	CurveDiurnal
	// CurveBurst keeps a low baseline with periodic high-rate bursts — the
	// flash-crowd shape that exercises fleet queueing and migration.
	CurveBurst
)

// String names the curve.
func (c Curve) String() string {
	switch c {
	case CurveConstant:
		return "constant"
	case CurveDiurnal:
		return "diurnal"
	case CurveBurst:
		return "burst"
	default:
		return fmt.Sprintf("Curve(%d)", int(c))
	}
}

// Traffic is the open-loop arrival process: a rate curve over a finite
// horizon plus the job mix the arrivals cycle through. Arrivals are
// deterministic per seed — the fractional-accumulator discretization is
// exact for Jitter 0, and the jitter term draws from the cluster's seeded
// RNG — so a fleet run is replayable bit-for-bit.
type Traffic struct {
	// Curve shapes the arrival rate over the horizon.
	Curve Curve
	// Rate is the mean arrivals per period at the curve's reference level
	// (the flat level for constant, the peak for diurnal, the burst level
	// for burst).
	Rate float64
	// Horizon is the number of periods during which arrivals occur; after
	// it the driver is exhausted and the cluster drains. 0 means 1 (all
	// arrivals in the first period).
	Horizon int
	// Mix is the job mix; arrival i runs profile Mix[i % len(Mix)], so the
	// mix ratio is exact and the submission order reproducible.
	Mix []spec.Profile
	// Jitter perturbs each period's rate multiplicatively by a seeded
	// uniform draw in [1-Jitter, 1+Jitter]; 0 (the default) keeps the
	// discretization exact.
	Jitter float64
	// BurstEvery and BurstLen shape CurveBurst: a burst of BurstLen
	// periods at full Rate starts every BurstEvery periods (seeded phase),
	// with Rate/5 between bursts. Defaults 200 and 20.
	BurstEvery, BurstLen int
}

func (t Traffic) withDefaults() Traffic {
	if t.Horizon == 0 {
		t.Horizon = 1
	}
	if t.BurstEvery == 0 {
		t.BurstEvery = 200
	}
	if t.BurstLen == 0 {
		t.BurstLen = 20
	}
	return t
}

// driver is the running state of a Traffic schedule.
type driver struct {
	t     Traffic
	rng   *rand.Rand
	phase int     // seeded burst phase offset
	acc   float64 // fractional arrivals carried between periods
	born  int     // arrivals emitted so far (global job index)
}

func newDriver(t Traffic, seed int64) *driver {
	t = t.withDefaults()
	d := &driver{t: t, rng: rand.New(rand.NewSource(seed))}
	if t.Curve == CurveBurst {
		d.phase = d.rng.Intn(t.BurstEvery)
	}
	return d
}

// rate evaluates the curve at period p. Pure; allocation-free.
func (d *driver) rate(p int) float64 {
	t := &d.t
	if p < 0 || p >= t.Horizon {
		return 0
	}
	switch t.Curve {
	case CurveConstant:
		return t.Rate
	case CurveDiurnal:
		// One full day over the horizon: sin ramps 0 -> peak -> 0.
		return t.Rate * math.Sin(math.Pi*float64(p)/float64(t.Horizon))
	case CurveBurst:
		if (p+d.phase)%t.BurstEvery < t.BurstLen {
			return t.Rate
		}
		return t.Rate / 5
	default:
		panic(fmt.Sprintf("fleet: unknown curve %d", int(t.Curve)))
	}
}

// arrivals returns how many jobs arrive in period p, advancing the
// fractional accumulator. Allocation-free for Jitter 0 paths too — the RNG
// draw does not allocate.
func (d *driver) arrivals(p int) int {
	r := d.rate(p)
	if r <= 0 {
		return 0
	}
	if d.t.Jitter > 0 {
		r *= 1 + d.t.Jitter*(2*d.rng.Float64()-1)
	}
	d.acc += r
	n := int(d.acc)
	d.acc -= float64(n)
	return n
}

// exhausted reports whether the schedule can produce no further arrivals
// at or after period p.
func (d *driver) exhausted(p int) bool { return p >= d.t.Horizon }

// next returns the profile of the next arrival and advances the global
// job index.
func (d *driver) next() (spec.Profile, int) {
	i := d.born
	d.born++
	return d.t.Mix[i%len(d.t.Mix)], i
}
