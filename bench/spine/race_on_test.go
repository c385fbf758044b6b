//go:build race

package main

// raceEnabled: the race detector slows the loop workload's system
// several-fold, so it cannot keep up with the fixed 50k datagrams/s and
// drops datagrams at its ingest socket; the smoke test then checks only
// that the run completes and stays race-free.
const raceEnabled = true
