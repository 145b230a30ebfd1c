package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// stealClock measures durations with the CPU time the hypervisor took
// from this machine's virtual CPUs removed. On a shared virtual machine
// that stolen time — the steal column of /proc/stat — swings from a few
// to a third of each CPU from one minute to the next, and it would
// otherwise dominate every difference between two runs of the same
// code. The stolen time is spread evenly over the CPUs, so a duration
// loses total steal / NumCPU. Where /proc/stat has no steal column the
// clock is the wall clock.
type stealClock struct {
	wall  time.Time
	steal time.Duration
}

// userHZ is the unit of /proc/stat's counters.
const userHZ = 100

func stealNow() stealClock {
	return stealClock{wall: time.Now(), steal: readSteal()}
}

// elapsed is the wall time since c, minus the steal in between.
func (c stealClock) elapsed() time.Duration {
	now := stealNow()
	d := now.wall.Sub(c.wall) - (now.steal-c.steal)/time.Duration(runtime.NumCPU())
	return max(d, 0)
}

// stolen is the steal since c, as a share of the CPU time that passed.
func (c stealClock) stolen() float64 {
	now := stealNow()
	wall := now.wall.Sub(c.wall) * time.Duration(runtime.NumCPU())
	if wall <= 0 {
		return 0
	}
	return float64(now.steal-c.steal) / float64(wall)
}

// virtualClock is the steal-free time since it was made. The steal
// counter moves in whole ticks, so the raw difference can step back a
// little; now never returns less than it returned before. Safe for
// concurrent use.
type virtualClock struct {
	start stealClock
	last  atomic.Int64
}

func newVirtualClock() *virtualClock { return &virtualClock{start: stealNow()} }

func (c *virtualClock) now() time.Duration {
	d := int64(c.start.elapsed())
	for {
		last := c.last.Load()
		if d <= last {
			return time.Duration(last)
		}
		if c.last.CompareAndSwap(last, d) {
			return time.Duration(d)
		}
	}
}

// readSteal returns the total steal over all CPUs since boot.
func readSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHZ
}
