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
	// lastWave is the boundary of the last wave of any kind — the first
	// record's time before there is one. The periodic trigger, TR-METIS's
	// minimum gap and the autoscaler's cooldown all measure from it.
	lastWave time.Time
	started  bool
}

// admit takes the time of the next record: the first one opens the first
// window, and a record before the open window is rejected, since its
// interaction would be accounted to a window it does not belong to.
func (c *clock) admit(t time.Time) error {
	if !c.started {
		c.start, c.lastWave, c.started = t.Truncate(c.window), t, true
	}
	if t.Before(c.start) {
		return fmt.Errorf("sim: record at %v precedes the open window at %v; records must arrive in time order",
			t, c.start)
	}
	return nil
}

// crossed reports whether t lies past the open window, which must then be
// closed and the next one opened with roll before t is accounted.
func (c *clock) crossed(t time.Time) bool { return t.Sub(c.start) >= c.window }

// roll opens the next window and returns its start: the boundary at which
// waves fire.
func (c *clock) roll() time.Time {
	c.start = c.start.Add(c.window)
	return c.start
}

// due reports whether a periodic wave fires at boundary now.
func (c *clock) due(now time.Time) bool { return now.Sub(c.lastWave) >= c.every }
