package main

import (
	"time"

	"ethpart/internal/sim"
	"ethpart/internal/workload"
)

// runFigReplay is the paper's figure path: the era history replayed
// serially under each of the five methods, full history, k=4. METIS's
// repartitions of the growing cumulative graph do most of the work, so
// multilevel and graph's CSR builds are busy while directory, dirserve and
// shardchain are never called.
func runFigReplay(env *runEnv) (*outcome, error) {
	var cells []cell
	for _, m := range sim.Methods() {
		cells = append(cells, cell{methodLabel(m), sim.Config{Method: m, K: shards}})
	}
	return replayWorkload(env, generateEra, cells)
}

// runDecayHub uses the same sim and graph layers the other way round:
// decay mode, where every metric window sweeps and retires beside the
// appends, on the hub-heavy diurnal-exchange scenario stretched to
// decayDays × decayRate arrivals an hour. Generation here is the scenario
// pipeline (open-loop arrivals, exchange hubs), not the era generator.
func runDecayHub(env *runEnv) (*outcome, error) {
	generate := func(env *runEnv) (*sim.GeneratedTrace, error) {
		sc, err := workload.LookupScenario("diurnal-exchange")
		if err != nil {
			return nil, err
		}
		sc.Seed = env.seed
		sc.Arrival.Duration = time.Duration(env.size.decayDays) * 24 * time.Hour
		sc.Arrival.RatePerHour = env.size.decayRate
		return sim.GenerateScenario(sc)
	}
	decay := func(m sim.Method) sim.Config {
		return sim.Config{
			Method: m, K: shards,
			DecayHalfLife: 12 * time.Hour, Horizon: 36 * time.Hour,
			RepartitionEvery: 48 * time.Hour, DecayedWindow: true,
		}
	}
	scaled := decay(sim.MethodTRMetis)
	scaled.Autoscale = sim.AutoscaleConfig{Enabled: true, KMin: 2, KMax: 8}
	cells := []cell{
		{"hash", decay(sim.MethodHash)},
		{"metis", decay(sim.MethodMetis)},
		{"tr-metis", scaled},
	}
	return replayWorkload(env, generate, cells)
}
