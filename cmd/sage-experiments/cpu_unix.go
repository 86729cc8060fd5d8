//go:build unix

package main

import (
	"syscall"
	"time"
)

// processCPU returns the user + system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only on a bad who or pointer; ru stays zero
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
