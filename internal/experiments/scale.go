package experiments

import (
	"fmt"
	"time"

	"ethpart/internal/opsim"
	"ethpart/internal/shardchain"
	"ethpart/internal/sim"
	"ethpart/internal/workload"
)

// This file implements the elastic-shard-count comparison (the scalecost
// figure): what saturation-driven autoscaling buys a live sharded chain on
// a flash-crowd history, against the two fixed provisioning policies it
// interpolates between — always-small (cheap, but saturated during the
// crowd) and always-large (meets the surge, but pays for idle shards the
// rest of the time). Cost is shard-windows provisioned; the SLO side is
// settlement latency, failures and cross-shard traffic.

// ScaleParams configures the flash-crowd autoscaling comparison.
type ScaleParams struct {
	// Seed drives the flash-crowd trace generator.
	Seed int64
	// KMin/KMax bound the autoscaler and name the two fixed baselines
	// (defaults 2 and 8).
	KMin, KMax int
}

// scaleTargetLoad is the autoscaler's per-shard window-load target: the
// flash-crowd trace's quiet phase sits comfortably under it at KMin and the
// surge blows through it. scaleHalfLife and scaleHorizon are the decay
// parameters of every policy in the comparison.
const (
	scaleTargetLoad = 100
	scaleHalfLife   = 12 * time.Hour
	scaleHorizon    = 3 * scaleHalfLife
)

func (p ScaleParams) withDefaults() ScaleParams {
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.KMin <= 0 {
		p.KMin = 2
	}
	if p.KMax <= 0 {
		p.KMax = 8
	}
	return p
}

// flashCrowd sizes the arrival process: quiet traffic around 60 records
// per 4-hour window, then a surge phase an order of magnitude denser, then
// a long cooldown back to base load. The window counts size the flash
// spike's position inside the open-loop arrival window.
const (
	flashQuietWindows = 6
	flashSurgeWindows = 6
	flashCoolWindows  = 10
	flashWindowHours  = 4
	flashQuietRate    = 15 // arrivals per hour, quiet phases
	flashPeakFactor   = 10 // surge multiplier
)

// flashTotalWindows is the arrival window in 4-hour metric windows.
const flashTotalWindows = flashQuietWindows + flashSurgeWindows + flashCoolWindows

// FlashCrowdSpec is the flash-crowd composition: the library's flash
// arrival process sized so the quiet phase sits comfortably under the
// autoscaler's per-shard target at KMin and the surge blows through it.
// Two blocks per 4-hour window, deterministic in Seed.
func FlashCrowdSpec(seed int64) workload.Scenario {
	return workload.Scenario{
		Name:        "scalecost-flash-crowd",
		Description: "the autoscale figure's regime: quiet boards, a 10× surge, cooldown",
		Seed:        seed,
		// Two blocks per 4-hour metric window, as the hand-rolled trace had.
		BlockInterval: flashWindowHours * time.Hour / 2,
		Arrival: workload.ArrivalSpec{
			Kind:        workload.ArrivalFlash,
			Start:       time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC),
			Duration:    flashTotalWindows * flashWindowHours * time.Hour,
			RatePerHour: flashQuietRate,
			PeakFactor:  flashPeakFactor,
			PeakStart:   float64(flashQuietWindows) / flashTotalWindows,
			PeakWidth:   float64(flashSurgeWindows) / flashTotalWindows,
		},
		Population:     workload.PopulationSpec{HotProb: 0.4, RecencyBias: 0.8},
		Mix:            workload.ScenarioMix{Transfer: 0.6, Token: 0.2, Game: 0.2},
		NewAccountFrac: 0.25,
		DeploysPerDay:  2,
	}
}

// FlashCrowdTrace builds the flash-crowd history through the open-loop
// workload pipeline: quiet base traffic, a surge phase in which a crowd of
// new arrivals multiplies the record rate, and a cooldown back to base
// load. It is exported so the root benchmarks can replay the same regime.
func FlashCrowdTrace(p ScaleParams) *sim.GeneratedTrace {
	p = p.withDefaults()
	gt, err := sim.GenerateScenario(FlashCrowdSpec(p.Seed))
	if err != nil {
		// The spec is a fixed, validated composition; generation cannot
		// fail on it short of a programming error.
		panic(fmt.Sprintf("experiments: flash-crowd trace: %v", err))
	}
	return gt
}

// scaleConfig is one policy's co-simulation configuration on the
// flash-crowd trace: TR-METIS with decay under the receipts model, so a
// merge has to pay the honest decommissioning cost of force-migrating the
// state history pinned to the drained lanes.
func scaleConfig(p ScaleParams, k int, autoscale bool) opsim.Config {
	cfg := opsim.Config{
		Sim: sim.Config{
			Method: sim.MethodTRMetis, K: k,
			Window:            4 * time.Hour,
			RepartitionEvery:  2 * 24 * time.Hour,
			MinRepartitionGap: 8 * time.Hour,
			TriggerWindows:    2,
			DecayHalfLife:     scaleHalfLife,
			Horizon:           scaleHorizon,
		},
		Model: shardchain.ModelReceipts,
	}
	if autoscale {
		cfg.Sim.Autoscale = sim.AutoscaleConfig{
			Enabled:          true,
			KMin:             p.KMin,
			KMax:             p.KMax,
			TargetWindowLoad: scaleTargetLoad,
		}
	}
	return cfg
}

// ScaleOperational runs the comparison: fixed provisioning at KMin and at
// KMax, and the autoscaler ranging between them (labels "fixed-kmin",
// "fixed-kmax", "autoscale"), all on the same flash-crowd history.
func ScaleOperational(p ScaleParams) ([]OpsRow, error) {
	p = p.withDefaults()
	if p.KMin > p.KMax {
		return nil, fmt.Errorf("experiments: scale: k-min %d > k-max %d", p.KMin, p.KMax)
	}
	gt := FlashCrowdTrace(p)
	return RunOps([]OpsCell{
		{Label: "fixed-kmin", Trace: gt, Config: scaleConfig(p, p.KMin, false)},
		{Label: "fixed-kmax", Trace: gt, Config: scaleConfig(p, p.KMax, false)},
		{Label: "autoscale", Trace: gt, Config: scaleConfig(p, p.KMin, true)},
	})
}
