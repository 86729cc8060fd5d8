//go:build !unix

package main

import "time"

// processCPU is not available here; the timing lines omit the CPU share.
func processCPU() time.Duration { return 0 }
