// Autoscaling: the saturation-driven shard-count controller (DESIGN.md
// §3). The simulator's K stops being a lifetime constant and becomes a
// control variable: at each window boundary the controller reads the
// saturation signals already on hand — per-shard window load, the window's
// cross-shard ratio from the cut counters, live counts — and, behind
// hysteresis and a cooldown shared with the repartition policy, resizes the
// shard set. A split re-partitions the (decayed) live graph at the new k; a
// merge drains the dropped highest-index shards into the least-loaded
// survivors; under hash placement both re-hash at the new modulus. All of
// them are ordinary repartition waves (wave.go): every remap flows through
// the same moveVertex, so downstream observers (directory publisher,
// operational chain) need no new move concepts — only the shard-count change
// itself, delivered via Config.OnResize after the wave's last OnMove.

package sim

import (
	"fmt"
	"math"
	"time"
)

// AutoscaleConfig parameterises the shard autoscaler. The zero value is
// disabled; when Enabled, unset fields take the defaults documented below.
type AutoscaleConfig struct {
	// Enabled arms the controller.
	Enabled bool
	// KMin and KMax bound the shard count. Defaults: 1 and 4×K.
	KMin, KMax int
	// TargetWindowLoad is the interaction load one shard is provisioned to
	// serve per window — the capacity unit the high/low water marks are
	// fractions of. Default 1024.
	TargetWindowLoad int64
}

// The controller's fixed parameters. A window whose hottest shard served at
// least splitHighWater×TargetWindowLoad counts toward a split; one whose
// *total* load is at most mergeLowWater×TargetWindowLoad×k (the fleet
// mostly idle), or that was quiet, counts toward a merge. hysteresisWindows
// consecutive hot (resp. cold) windows fire a resize; a moderate window
// resets both streaks. The cooldown between a resize and any earlier wave
// is the simulator's MinRepartitionGap, shared with the repartition policy
// in both directions because a resize is itself a wave on the same clock.
const (
	splitHighWater    = 0.9
	mergeLowWater     = 0.35
	hysteresisWindows = 2
)

// autoscaleTargetUtil is the utilisation the desired shard count packs the
// observed load to: k′ = ceil(load / (TargetWindowLoad × util)). Sizing to
// ~60% rather than 100% leaves headroom so the fleet doesn't sit exactly at
// the split high water after every resize.
const autoscaleTargetUtil = 0.6

// withDefaults fills unset fields; k is the (defaulted) initial shard
// count.
func (a AutoscaleConfig) withDefaults(k int) AutoscaleConfig {
	if a.KMin <= 0 {
		a.KMin = 1
	}
	if a.KMax <= 0 {
		a.KMax = 4 * k
	}
	if a.TargetWindowLoad <= 0 {
		a.TargetWindowLoad = 1024
	}
	return a
}

// validate checks the (defaulted) config against the initial shard count.
func (a AutoscaleConfig) validate(k int) error {
	if a.KMin > k || k > a.KMax {
		return fmt.Errorf("sim: autoscale: initial K=%d outside [KMin=%d, KMax=%d]", k, a.KMin, a.KMax)
	}
	return nil
}

// ResizeEvent records one autoscaler firing.
type ResizeEvent struct {
	// At is the window boundary the resize fired on.
	At time.Time
	// FromK and ToK are the shard counts before and after.
	FromK, ToK int
	// Moves is the number of vertices the scale wave re-assigned.
	Moves int
}

// maybeResize runs the controller at a window boundary, after decayStep and
// before the repartition policy. The signals it reads describe the window
// flushWindow just closed: its record, and the total load stashed beside it.
func (s *Simulator) maybeResize(now time.Time) error {
	ac := s.cfg.Autoscale
	if !ac.Enabled {
		return nil
	}
	k := s.cfg.K
	last := s.result.Windows[len(s.result.Windows)-1]
	target := float64(ac.TargetWindowLoad)
	maxLoad := float64(last.PeakLoad)
	sumLoad := float64(s.lastWinSumLoad)

	hot := maxLoad >= splitHighWater*target
	// Locality damper: when the window's cross-shard ratio already exceeds
	// the hash bound at k+1 shards, a split cannot buy locality — every
	// extra shard only adds coordination. Only true saturation (twice the
	// high water) still justifies splitting for capacity alone.
	if hot && last.DynamicCut >= float64(k)/float64(k+1) && maxLoad < 2*splitHighWater*target {
		hot = false
	}
	cold := last.Interactions == 0 || sumLoad <= mergeLowWater*target*float64(k)
	switch {
	case hot:
		s.hotStreak++
		s.coldStreak = 0
	case cold:
		s.coldStreak++
		s.hotStreak = 0
	default:
		s.hotStreak, s.coldStreak = 0, 0
	}

	// Desired k packs the window's observed load at the target utilisation;
	// the direction of the firing clamps it so a split always grows and a
	// merge always shrinks, whatever the point estimate says.
	desired := int(math.Ceil(sumLoad / (target * autoscaleTargetUtil)))
	var newK int
	switch {
	case s.hotStreak >= hysteresisWindows && k < ac.KMax:
		newK = clampInt(desired, k+1, ac.KMax)
	case s.coldStreak >= hysteresisWindows && k > ac.KMin:
		newK = clampInt(desired, ac.KMin, k-1)
	default:
		return nil
	}
	if now.Sub(s.clk.lastWave) < s.cfg.MinRepartitionGap {
		return nil // wave cooldown shared with the repartition policy
	}
	s.hotStreak, s.coldStreak = 0, 0
	return s.wave(now, newK)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
