package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// One core. The machine is a few virtual CPUs of a shared host. When
// the generator and the servers sit on different ones, every exchange
// crosses between them twice, each crossing has to wake a halted
// virtual CPU, and how long that takes is the host's business: on a
// busy host it turned a 1 ms operation into a 10 ms one. So the
// generator and every server it spawns are confined to one of the
// allowed CPUs. A closed loop on one core is serial anyway — the
// client waits while the server works — so nothing is lost but the
// overlap of two clients, and what the core's clock counts is exactly
// the work an operation takes.

// cpuMask is a Linux cpu_set_t large enough for 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) set(cpu int)      { m[cpu/64] |= 1 << (cpu % 64) }
func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() []int {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return nil
	}
	var cpus []int
	for c := 0; c < len(m)*64; c++ {
		if m.has(c) {
			cpus = append(cpus, c)
		}
	}
	return cpus
}

// benchCPU is the core everything runs on, -1 while nothing is pinned.
var benchCPU = -1

// confine restricts every thread of this process to cpus (threads and
// processes created later inherit the set) and gives the Go scheduler
// as many Ps, at most two: no more than two client goroutines ever run.
// Where the kernel does not permit it the run goes on as it was.
func confine(cpus []int) bool {
	tasks, err := os.ReadDir("/proc/self/task")
	if len(cpus) == 0 || err != nil {
		return false
	}
	var m cpuMask
	for _, c := range cpus {
		m.set(c)
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
			return false
		}
	}
	runtime.GOMAXPROCS(min(2, len(cpus)))
	return true
}

// allowed is the CPU set the process started with.
var allowed = allowedCPUs()

// pinToOneCore confines the process to the highest CPU it is allowed
// (the lowest takes most of the machine's interrupts).
func pinToOneCore() {
	if len(allowed) > 0 && confine(allowed[len(allowed)-1:]) {
		benchCPU = allowed[len(allowed)-1]
	}
}

// unpin gives the process its CPUs back: the traced run hosts client
// and servers in this one process, and a span's self time should be its
// layer's work, not its wait for the other side to yield the core.
func unpin() {
	if benchCPU >= 0 && confine(allowed) {
		benchCPU = -1
	}
}

// stealMillis is the time the host has kept the benchmark's core from
// the guest so far (the steal column of /proc/stat; of all CPUs while
// nothing is pinned).
func stealMillis() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	label := "cpu"
	if benchCPU >= 0 {
		label += strconv.Itoa(benchCPU)
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		f := strings.Fields(string(line))
		if len(f) > 8 && f[0] == label {
			ticks, _ := strconv.ParseFloat(f[8], 64)
			return ticks * 1000 / clockTick
		}
	}
	return 0
}
