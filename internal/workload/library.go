package workload

import (
	"fmt"
	"sort"
	"time"
)

// The named scenario library. Each entry is a full composition the tools
// can generate, validate and describe by name; experiments compare
// partitioning methods across them. Durations are kept to days so every
// scenario generates in seconds at default rates.

// libStart anchors the library in simulated time (the era history ends in
// 2016; scenarios probe the years after).
var libStart = time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)

// Scenarios returns the named scenario library, sorted by name. The
// returned specs are copies; callers may adjust Seed or Arrival freely.
func Scenarios() []Scenario {
	lib := []Scenario{
		{
			Name:        "transfer-steady",
			Description: "steady Poisson user-to-user transfers, light population growth",
			Arrival: ArrivalSpec{
				Kind: ArrivalPoisson, Start: libStart,
				Duration: 7 * 24 * time.Hour, RatePerHour: 120,
			},
			Population:     PopulationSpec{HotProb: 0.2, RecencyBias: 0.5},
			Mix:            ScenarioMix{Transfer: 1},
			NewAccountFrac: 0.15,
		},
		{
			Name:        "diurnal-exchange",
			Description: "day/night exchange deposits and withdrawals around hub super-vertices",
			Arrival: ArrivalSpec{
				Kind: ArrivalDiurnal, Start: libStart,
				Duration: 7 * 24 * time.Hour, RatePerHour: 150, Amplitude: 0.8,
			},
			Population:     PopulationSpec{HotProb: 0.4, RecencyBias: 0.8},
			Mix:            ScenarioMix{Transfer: 0.3, Token: 0.2, Exchange: 0.5},
			NewAccountFrac: 0.08,
			DeploysPerDay:  2,
		},
		{
			Name:        "flash-nft-mint",
			Description: "NFT mint rush: flat traffic with an 8× mint spike mid-run",
			Arrival: ArrivalSpec{
				Kind: ArrivalFlash, Start: libStart,
				Duration: 4 * 24 * time.Hour, RatePerHour: 100,
				PeakFactor: 8, PeakStart: 0.4, PeakWidth: 0.15,
			},
			Population:     PopulationSpec{HotProb: 0.5, RecencyBias: 0.8},
			Mix:            ScenarioMix{Transfer: 0.25, NFTMint: 0.6, Airdrop: 0.15},
			NewAccountFrac: 0.2,
			DeploysPerDay:  6,
		},
		{
			Name:        "airdrop-storm",
			Description: "airdrop-heavy fan-out traffic seeding many new accounts",
			Arrival: ArrivalSpec{
				Kind: ArrivalPoisson, Start: libStart,
				Duration: 3 * 24 * time.Hour, RatePerHour: 80,
			},
			Population:     PopulationSpec{HotProb: 0.2, RecencyBias: 0.5},
			Mix:            ScenarioMix{Transfer: 0.3, Airdrop: 0.5, Token: 0.2},
			NewAccountFrac: 0.1,
			DeploysPerDay:  3,
		},
		{
			Name:        "crud-diurnal",
			Description: "state-heavy keyed-store CRUD mix with a day/night cycle",
			Arrival: ArrivalSpec{
				Kind: ArrivalDiurnal, Start: libStart,
				Duration: 5 * 24 * time.Hour, RatePerHour: 130, Amplitude: 0.6,
			},
			Population:     PopulationSpec{HotProb: 0.3, RecencyBias: 0.8},
			Mix:            ScenarioMix{Transfer: 0.2, CRUD: 0.6, Game: 0.2},
			NewAccountFrac: 0.1,
			DeploysPerDay:  2,
		},
		{
			Name:        "flash-crowd",
			Description: "the autoscale figure's shape: quiet boards, a 10× surge, cooldown",
			Arrival: ArrivalSpec{
				Kind: ArrivalFlash, Start: libStart,
				Duration: 4 * 24 * time.Hour, RatePerHour: 60,
				PeakFactor: 10, PeakStart: 0.3, PeakWidth: 0.25,
			},
			Population:     PopulationSpec{HotProb: 0.4, RecencyBias: 0.8},
			Mix:            ScenarioMix{Transfer: 0.6, Token: 0.2, Game: 0.2},
			NewAccountFrac: 0.25,
			DeploysPerDay:  2,
		},
	}
	sort.Slice(lib, func(i, j int) bool { return lib[i].Name < lib[j].Name })
	return lib
}

// ScenarioNames returns the library's names, sorted.
func ScenarioNames() []string {
	lib := Scenarios()
	names := make([]string, len(lib))
	for i, sc := range lib {
		names[i] = sc.Name
	}
	return names
}

// LookupScenario returns the named library scenario.
func LookupScenario(name string) (Scenario, error) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("workload: unknown scenario %q (have %v)", name, ScenarioNames())
}

// ResolveScenario looks up a named library scenario and applies the
// overrides every tool exposes as flags: arrival kind (empty keeps the
// scenario's own process), duration in hours (0 keeps, negative is an
// error), and seed (0 keeps). Swapping the arrival kind keeps the scenario's rate and start;
// kind-specific parameters the scenario never set fall to their defaults
// when the generator is built.
func ResolveScenario(name, arrival string, hours float64, seed int64) (Scenario, error) {
	sc, err := LookupScenario(name)
	if err != nil {
		return Scenario{}, err
	}
	if arrival != "" {
		kind, err := ParseArrivalKind(arrival)
		if err != nil {
			return Scenario{}, err
		}
		sc.Arrival.Kind = kind
	}
	if hours < 0 {
		return Scenario{}, fmt.Errorf("workload: scenario %q: duration of %g hours is negative", name, hours)
	}
	if hours > 0 {
		sc.Arrival.Duration = time.Duration(hours * float64(time.Hour))
	}
	if seed != 0 {
		sc.Seed = seed
	}
	return sc, nil
}
