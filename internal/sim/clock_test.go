package sim

import (
	"fmt"
	"testing"
	"time"
)

// timeClock is the window test on time.Time values that clock's whole-second
// bounds replace: a record at t is rejected when t.Before(start) and crosses
// the open window when t.Sub(start) >= window.
type timeClock struct {
	window  time.Duration
	start   time.Time
	started bool
}

func (c *timeClock) admit(t time.Time) error {
	if !c.started {
		c.start, c.started = t.Truncate(c.window), true
	}
	if t.Before(c.start) {
		return fmt.Errorf("record at %v precedes %v", t, c.start)
	}
	return nil
}

func (c *timeClock) crossed(t time.Time) bool { return t.Sub(c.start) >= c.window }

func (c *timeClock) roll() time.Time {
	c.start = c.start.Add(c.window)
	return c.start
}

// TestClockMatchesTimeFormulas feeds the same record seconds to clock and
// to timeClock: every record must be admitted or rejected alike and cross
// the same boundaries. The windows include ones that do not divide a day
// (Truncate works from Go's zero time, so their starts fall off the hour)
// or a second (starts on half-seconds). The records sit one second before,
// at and after the first whole second of a boundary, across a quiet gap of
// several windows, and one second before the open window.
func TestClockMatchesTimeFormulas(t *testing.T) {
	const first = int64(1_600_000_123)
	for _, window := range []time.Duration{4 * time.Hour, 7 * time.Hour, 90 * time.Minute, 1500 * time.Millisecond} {
		t.Run(window.String(), func(t *testing.T) {
			start := time.Unix(first, 0).UTC().Truncate(window)
			boundary := func(n int) int64 { return ceilUnix(start.Add(time.Duration(n) * window)) }
			secs := []int64{first}
			for _, n := range []int{1, 2, 3, 8} { // 3 → 8 is a quiet gap of five windows
				b := boundary(n)
				secs = append(secs, b-1, b, b+1)
			}
			late := len(secs)
			secs = append(secs, boundary(8)-1) // the open window starts at boundary 8
			secs = append(secs, boundary(9), boundary(20)+1)

			got := clock{window: window}
			want := timeClock{window: window}
			for i, sec := range secs {
				tm := time.Unix(sec, 0).UTC()
				gotErr, wantErr := got.admit(sec), want.admit(tm)
				if (gotErr != nil) != (wantErr != nil) {
					t.Fatalf("record %d at %d: admit error %v, formula %v", i, sec, gotErr, wantErr)
				}
				if i == late && gotErr == nil {
					t.Fatalf("record %d at %d, before the open window, admitted", i, sec)
				}
				if gotErr != nil {
					continue
				}
				for want.crossed(tm) {
					if !got.crossed(sec) {
						t.Fatalf("record %d at %d: no crossing, formula crosses %v", i, sec, want.start.Add(window))
					}
					if g, w := got.roll(), want.roll(); !g.Equal(w) {
						t.Fatalf("record %d at %d: rolled to %v, formula %v", i, sec, g, w)
					}
				}
				if got.crossed(sec) {
					t.Fatalf("record %d at %d: crossing past %v, formula none", i, sec, got.start)
				}
			}
		})
	}
}
