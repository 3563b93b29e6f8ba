package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The reference box is a shared 2-vCPU virtual machine whose speed
// wanders with its neighbours: the same binary, seed and window gave
// anything from 2 560 to 4 270 queries a second within ten minutes,
// with whole runs sitting in a slow or a fast spell, so no statistic
// taken inside a run can remove it. The speed probe measures the spell
// instead: a dedicated thread runs a fixed unit of work every
// probePeriod while the window is open and reports the CPU time the
// unit took. Over twelve back-to-back runs that time tracked 1/qps,
// p50 and CPU per query with r = 0.97 to 0.99, and dividing it out cut
// their run-to-run spread by half or more (README, "Repeatability").
//
// The unit shares no code with the system under test — a change that
// made the probe faster along with the servers would cancel its own
// gain — and is cache-resident integer, branch and float work, the mix
// of a query whose graph neighbourhood is hot.
type speedProbe struct {
	stop   chan struct{}
	done   chan struct{}
	cycles int
	cpuNS  float64
	err    error
}

const (
	probePeriod = 25 * time.Millisecond
	probeSteps  = 50000 // about 0.45 ms a cycle: under 2 % of one CPU
	// speedRefUS is the CPU time of one probe cycle on the reference
	// box in a quiet spell. Time-based end-to-end metrics are reported
	// as they would read at that speed.
	speedRefUS = 450.0
)

// threadCPU reads the calling thread's on-CPU nanoseconds. The
// scheduler brings this count up to date whenever the thread goes to
// sleep, so a read just after a wake-up is exact for everything before
// it; getrusage's per-thread times are sampled at the tick and far too
// coarse for a sub-millisecond unit.
func threadCPU(f *os.File) (float64, error) {
	var buf [64]byte
	n, err := f.ReadAt(buf[:], 0)
	if n == 0 {
		return 0, fmt.Errorf("schedstat: %w", err)
	}
	field, _, _ := strings.Cut(string(buf[:n]), " ")
	return strconv.ParseFloat(field, 64)
}

// probeSink keeps the compiler from discarding the unit's work.
var probeSink uint32

func startProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go p.run()
	return p
}

func (p *speedProbe) run() {
	defer close(p.done)
	// thread-self resolves when the file is opened, and the count is
	// per thread: both need the goroutine to stay on one thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	f, err := os.Open("/proc/thread-self/schedstat")
	if err != nil {
		p.err = err
		return
	}
	defer f.Close()

	tab := make([]uint32, 1<<14) // 64 KiB
	for i := range tab {
		tab[i] = uint32(uint64(i) * hashMul >> 7)
	}
	var tally [1024]uint32
	x := uint64(88172645463325252)
	acc := 0.0
	// Both readings follow a wake-up, so both are exact: this sleep
	// before the first, the select below before the last.
	time.Sleep(time.Millisecond)
	first, err := threadCPU(f)
	if err != nil {
		p.err = err
		return
	}
	tick := time.NewTicker(probePeriod)
	defer tick.Stop()
	for {
		for i := 0; i < probeSteps; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			v := tab[x&(1<<14-1)]
			if v&1 == 1 {
				acc += float64(v&0xff) * 0.6
			}
			tally[v&1023]++
		}
		probeSink = uint32(acc) + tally[0]
		p.cycles++
		select {
		case <-p.stop:
			last, err := threadCPU(f)
			p.cpuNS, p.err = last-first, err
			return
		case <-tick.C:
		}
	}
}

// finish stops the probe and returns the machine's speed while it ran,
// as a factor of the reference: 1.2 means the unit took 20 % more CPU
// time than on the quiet reference box, so every time measured
// alongside is divided by 1.2 and every rate multiplied by it.
func (p *speedProbe) finish() (float64, error) {
	close(p.stop)
	<-p.done
	if p.err != nil {
		return 0, fmt.Errorf("speed probe: %w", p.err)
	}
	return p.cpuNS / float64(p.cycles) / 1e3 / speedRefUS, nil
}
