package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// The arrival layer of the workload pipeline. Unlike the closed-loop era
// composition — which decides per block how many actions to squeeze in —
// an ArrivalSpec describes an open-loop arrival process: actions arrive at
// instants drawn from a (possibly time-varying) Poisson process, records
// carry those arrival timestamps, and block boundaries are derived from
// the arrivals by batching each BlockInterval-wide grid cell into one
// block. Load is therefore imposed on the system rather than negotiated
// with it, which is what makes flash crowds visible to the autoscaler.

// ArrivalKind selects the arrival process shape.
type ArrivalKind int

const (
	// ArrivalPoisson is a homogeneous Poisson process at RatePerHour.
	ArrivalPoisson ArrivalKind = iota
	// ArrivalDiurnal modulates the rate sinusoidally with the given
	// Amplitude over a diurnalPeriod — the day/night cycle every
	// production trace shows.
	ArrivalDiurnal
	// ArrivalFlash is a flat base rate with a square spike of
	// PeakFactor× the base rate over the [PeakStart, PeakStart+PeakWidth]
	// fraction of the run — the flash-crowd shape of the autoscale figure.
	ArrivalFlash
)

// String returns the flag spelling of k.
func (k ArrivalKind) String() string {
	switch k {
	case ArrivalDiurnal:
		return "diurnal"
	case ArrivalFlash:
		return "flash"
	default:
		return "poisson"
	}
}

// ParseArrivalKind parses the flag spelling of an arrival kind.
func ParseArrivalKind(s string) (ArrivalKind, error) {
	switch s {
	case "poisson":
		return ArrivalPoisson, nil
	case "diurnal":
		return ArrivalDiurnal, nil
	case "flash":
		return ArrivalFlash, nil
	default:
		return 0, fmt.Errorf("workload: unknown arrival kind %q (poisson, diurnal, flash)", s)
	}
}

// ArrivalSpec parameterises one open-loop arrival process.
type ArrivalSpec struct {
	Kind ArrivalKind
	// Start and Duration bound the process in simulated time.
	Start    time.Time
	Duration time.Duration
	// RatePerHour is the base arrival rate.
	RatePerHour float64
	// Amplitude (diurnal) is the relative swing in [0, 1]: the rate
	// oscillates between Rate·(1−A) and Rate·(1+A).
	Amplitude float64
	// PeakFactor (flash) multiplies the base rate during the spike;
	// PeakStart and PeakWidth position the spike as fractions of
	// Duration.
	PeakFactor float64
	PeakStart  float64
	PeakWidth  float64
}

// diurnalPeriod is the length of ArrivalDiurnal's cycle.
const diurnalPeriod = 24 * time.Hour

// withDefaults fills zero fields.
func (a ArrivalSpec) withDefaults() ArrivalSpec {
	if a.Start.IsZero() {
		a.Start = time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	if a.Duration <= 0 {
		a.Duration = 7 * 24 * time.Hour
	}
	if a.RatePerHour <= 0 {
		a.RatePerHour = 100
	}
	if a.Kind == ArrivalFlash {
		if a.PeakFactor <= 0 {
			a.PeakFactor = 8
		}
		if a.PeakWidth <= 0 {
			a.PeakWidth = 0.2
		}
		if a.PeakStart <= 0 {
			a.PeakStart = 0.4
		}
	}
	return a
}

// validate rejects specs the thinning sampler cannot handle.
func (a ArrivalSpec) validate() error {
	if a.RatePerHour <= 0 {
		return fmt.Errorf("workload: arrival rate must be positive, got %v", a.RatePerHour)
	}
	if a.Duration <= 0 {
		return fmt.Errorf("workload: arrival duration must be positive, got %v", a.Duration)
	}
	if a.Amplitude < 0 || a.Amplitude > 1 {
		return fmt.Errorf("workload: diurnal amplitude must be in [0,1], got %v", a.Amplitude)
	}
	if a.Kind == ArrivalFlash {
		if a.PeakFactor < 1 {
			return fmt.Errorf("workload: flash peak factor must be ≥ 1, got %v", a.PeakFactor)
		}
		if a.PeakStart < 0 || a.PeakWidth <= 0 || a.PeakStart+a.PeakWidth > 1 {
			return fmt.Errorf("workload: flash peak window [%v, %v+%v] must fit in [0,1]",
				a.PeakStart, a.PeakStart, a.PeakWidth)
		}
	}
	return nil
}

// rateAt returns the instantaneous arrival rate (per hour) at t.
func (a ArrivalSpec) rateAt(t time.Time) float64 {
	switch a.Kind {
	case ArrivalDiurnal:
		elapsed := t.Sub(a.Start).Seconds()
		phase := 2 * math.Pi * elapsed / diurnalPeriod.Seconds()
		return a.RatePerHour * (1 + a.Amplitude*math.Sin(phase))
	case ArrivalFlash:
		frac := float64(t.Sub(a.Start)) / float64(a.Duration)
		if frac >= a.PeakStart && frac < a.PeakStart+a.PeakWidth {
			return a.RatePerHour * a.PeakFactor
		}
		return a.RatePerHour
	default:
		return a.RatePerHour
	}
}

// peakRate returns the maximum instantaneous rate (per hour), the thinning
// envelope.
func (a ArrivalSpec) peakRate() float64 {
	switch a.Kind {
	case ArrivalDiurnal:
		return a.RatePerHour * (1 + a.Amplitude)
	case ArrivalFlash:
		return a.RatePerHour * a.PeakFactor
	default:
		return a.RatePerHour
	}
}

// arrivalStream samples successive arrival instants from a spec by
// thinning (Lewis & Shedler): candidate gaps are exponential at the peak
// rate and each candidate is accepted with probability rate(t)/peak, which
// yields an exact non-homogeneous Poisson process for any bounded rate
// function.
type arrivalStream struct {
	spec ArrivalSpec
	t    time.Time
	end  time.Time
	max  float64 // peak rate in arrivals per second
}

func newArrivalStream(spec ArrivalSpec) *arrivalStream {
	return &arrivalStream{
		spec: spec,
		t:    spec.Start,
		end:  spec.Start.Add(spec.Duration),
		max:  spec.peakRate() / 3600,
	}
}

// next draws the next arrival instant; ok=false once the process's horizon
// is exhausted.
func (s *arrivalStream) next(rng *rand.Rand) (time.Time, bool) {
	for {
		gap := rng.ExpFloat64() / s.max
		s.t = s.t.Add(time.Duration(gap * float64(time.Second)))
		if !s.t.Before(s.end) {
			return time.Time{}, false
		}
		if rng.Float64()*s.spec.peakRate() <= s.spec.rateAt(s.t) {
			return s.t, true
		}
	}
}
