package main

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The yardstick. The machine is a few cores of a shared host, and for
// minutes at a time the host's other tenants make those cores slower
// at memory-bound work — the last-level cache and the memory bus are
// shared — by a fifth to a half, without the guest seeing any stolen
// time for it. A whole run can lie inside such a phase, so no choice
// among its slices removes it. What does: a fixed piece of memory-bound
// work, made of nothing from this repository, timed on the thread's CPU
// clock five times a second on the benchmark's core, beside the
// workload. Over 111 runs across a slow phase and a quiet one its
// median per run followed every workload's CPU time per operation with
// a correlation of 0.92 to 0.97, so CPU times are reported multiplied
// by yardRefMicros over that median: in milliseconds of the core at its
// quiet speed. That took the spread of the runs from 13-41 % of their
// median to 3-15 % (README, "Repeatability").

const (
	// yardRefMicros is the yardstick's time on a quiet core of the
	// machine the bounds were measured on. It only fixes the unit: on
	// another machine every CPU-time figure scales by one factor.
	yardRefMicros = 1350
	yardInterval  = 200 * time.Millisecond
)

// yard is the run's yardstick, started once the process is pinned; nil
// (every speed reads 1) in tests.
var yard *yardstick

type yardSample struct {
	at     time.Time
	micros float64
}

type yardstick struct {
	mu      sync.Mutex
	samples []yardSample
	used    atomic.Int64 // CPU nanoseconds the yardstick itself has taken
	quit    chan struct{}
	done    chan struct{}
}

// yardWork is the fixed work: copy 1 MiB, then follow 8192 links
// through an 8 MiB table that is one random cycle, so every step
// misses the nearer caches.
type yardWork struct {
	src, dst []byte
	table    []uint32
	sink     uint32
}

func newYardWork() *yardWork {
	w := &yardWork{src: make([]byte, 1<<20), dst: make([]byte, 1<<20), table: make([]uint32, 2<<20)}
	r := rand.New(rand.NewSource(1))
	for i := range w.src {
		w.src[i] = byte(r.Intn(256))
	}
	for i := range w.table {
		w.table[i] = uint32(i)
	}
	for i := len(w.table) - 1; i > 0; i-- { // Sattolo: a single cycle
		j := r.Intn(i)
		w.table[i], w.table[j] = w.table[j], w.table[i]
	}
	return w
}

func (w *yardWork) run() {
	copy(w.dst, w.src)
	i := w.sink % uint32(len(w.table))
	for k := 0; k < 8192; k++ {
		i = w.table[i]
	}
	w.sink = i + uint32(w.dst[i%uint32(len(w.dst))])
}

// threadCPUNanos reads the calling thread's CPU clock, which counts
// only the time the thread ran: not time it waited for the core, nor
// time the host took the core away.
func threadCPUNanos() int64 {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0) //nolint:errcheck // cannot fail for this clock
	return ts.Nano()
}

// startYardstick starts the measuring thread; stop ends it.
func startYardstick() *yardstick {
	w := newYardWork()
	y := &yardstick{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(y.done)
		runtime.LockOSThread() // the CPU clock read is this thread's
		defer runtime.UnlockOSThread()
		w.run() // the first pass faults the memory in
		tick := time.NewTicker(yardInterval)
		defer tick.Stop()
		for {
			select {
			case <-y.quit:
				return
			case <-tick.C:
			}
			start := threadCPUNanos()
			w.run()
			took := threadCPUNanos() - start
			y.used.Add(took)
			y.mu.Lock()
			y.samples = append(y.samples, yardSample{at: time.Now(), micros: float64(took) / 1e3})
			y.mu.Unlock()
		}
	}()
	return y
}

func (y *yardstick) stop() {
	if y == nil {
		return
	}
	close(y.quit)
	<-y.done
}

// usedMillis is the CPU time the yardstick has taken so far, which is
// not the client's.
func (y *yardstick) usedMillis() float64 {
	if y == nil {
		return 0
	}
	return float64(y.used.Load()) / 1e6
}

// micros is the median yardstick time between from and to (of every
// sample so far when the interval is too short to hold one), 0 when
// there is none.
func (y *yardstick) micros(from, to time.Time) float64 {
	if y == nil {
		return 0
	}
	y.mu.Lock()
	defer y.mu.Unlock()
	var in, all []float64
	for _, s := range y.samples {
		all = append(all, s.micros)
		if !s.at.Before(from) && !s.at.After(to) {
			in = append(in, s.micros)
		}
	}
	if len(in) == 0 {
		in = all
	}
	return median(in)
}

// speed is how fast the core was at memory-bound work between from and
// to, as a share of its quiet speed; 1 without a yardstick.
func (y *yardstick) speed(from, to time.Time) float64 {
	if us := y.micros(from, to); us > 0 {
		return yardRefMicros / us
	}
	return 1
}
