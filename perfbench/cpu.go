package main

import (
	"fmt"
	"syscall"
	"time"
)

// cpuNow returns the CPU time this process has used so far: user and
// system, over all its threads.
//
// The end-to-end timings are CPU time, not wall time. Every workload runs
// one simulation at a time, so on an idle host the two differ mainly by
// the garbage collector's work on other threads, which CPU time counts. On
// a shared virtual machine they also differ by the time the
// hypervisor gives this machine's CPUs to other guests: wall time counts
// that, and it moved wall-clock figures by half between consecutive runs,
// while the kernel leaves it out of a process's CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuSince returns the CPU time used since start, a cpuNow reading.
func cpuSince(start time.Duration) time.Duration { return cpuNow() - start }
