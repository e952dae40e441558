//go:build !linux

package main

// maxRSSMB reads 0 where getrusage's ru_maxrss unit is not known to be KiB.
func maxRSSMB() float64 { return 0 }
