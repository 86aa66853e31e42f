package sim

import (
	"fmt"
	"time"
)

// clock is the wave schedule: the open metric window and the boundary of
// the last wave. The simulator and Replay's lookahead each run one over the
// same records, so the boundaries a periodic wave fires at come from one
// piece of code on both sides.
type clock struct {
	window time.Duration
	// every is the period of the periodic trigger.
	every time.Duration
	// start is the open window's start.
	start time.Time
	// lo and hi are the first whole Unix seconds at or after the open
	// window's start and end. Records carry whole seconds, so a record at
	// sec lies in the open window exactly when lo <= sec < hi.
	lo, hi int64
	// lastWave is the boundary of the last wave of any kind — the first
	// record's time before there is one. The periodic trigger, TR-METIS's
	// minimum gap and the autoscaler's cooldown all measure from it.
	lastWave time.Time
	started  bool
}

// admit takes the Unix second of the next record: the first one opens the
// first window, and a record before the open window is rejected, since its
// interaction would be accounted to a window it does not belong to.
func (c *clock) admit(sec int64) error {
	if !c.started {
		t := time.Unix(sec, 0).UTC()
		c.start, c.lastWave, c.started = t.Truncate(c.window), t, true
		c.bound()
	}
	if sec < c.lo {
		return fmt.Errorf("sim: record at %v precedes the open window at %v; records must arrive in time order",
			time.Unix(sec, 0).UTC(), c.start)
	}
	return nil
}

// crossed reports whether second sec lies past the open window, which must
// then be closed and the next one opened with roll before sec is accounted.
func (c *clock) crossed(sec int64) bool { return sec >= c.hi }

// roll opens the next window and returns its start: the boundary at which
// waves fire.
func (c *clock) roll() time.Time {
	c.start = c.start.Add(c.window)
	c.bound()
	return c.start
}

// bound sets lo and hi from start.
func (c *clock) bound() {
	c.lo, c.hi = ceilUnix(c.start), ceilUnix(c.start.Add(c.window))
}

// ceilUnix is the first whole Unix second at or after t.
func ceilUnix(t time.Time) int64 {
	if t.Nanosecond() > 0 {
		return t.Unix() + 1
	}
	return t.Unix()
}

// due reports whether a periodic wave fires at boundary now.
func (c *clock) due(now time.Time) bool { return now.Sub(c.lastWave) >= c.every }
