//go:build race

package main

// raceEnabled reports a -race build, whose ~10x slower server saturates at
// the serve workload's fixed offered load.
const raceEnabled = true
