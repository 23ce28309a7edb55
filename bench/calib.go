package main

import "time"

// A shared host's speed drifts: on a 2-vCPU virtual machine the same
// seed-free pass took 3.0 s in one minute and 4.7 s a few minutes later,
// in wall and CPU time alike. Medians over the passes of one run cannot
// absorb a drift that outlasts the run, so every pass first times a fixed
// calibration kernel and its timings are scaled by calibRef / kernel time.
// On that machine this cut the run-to-run spread of a pass's time from
// about 20% to about 6%.
//
// The kernel uses only the Go runtime, never the repository's code, so a
// change to the simulator cannot move it. It exercises what the
// simulator's host time is made of: goroutine handoffs over channels,
// dependent loads over a few MB, and integer arithmetic.

// calibRef is the kernel time the scaled timings are expressed against:
// a timing of t seconds on a pass whose kernel took k seconds is reported
// as t * calibRef / k "reference seconds".
const calibRef = 0.25

const (
	calibReps      = 10
	calibHandoffs  = 40_000
	calibChaseLen  = 1 << 19
	calibChaseHops = 3_000_000
)

// calibSink keeps the kernel's result live.
var calibSink uint64

// calibrate times the calibration kernel in seconds.
func calibrate() float64 {
	next := make([]uint32, calibChaseLen)
	x := uint64(12345)
	for i := range next {
		x = x*6364136223846793005 + 1442695040888963407
		next[i] = uint32(x>>33) % calibChaseLen
	}
	start := time.Now()
	for r := 0; r < calibReps; r++ {
		ping, pong := make(chan int, 1), make(chan int, 1)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < calibHandoffs; i++ {
				pong <- <-ping
			}
		}()
		for i := 0; i < calibHandoffs; i++ {
			ping <- i
			<-pong
		}
		<-done
		p, s := uint32(r), uint64(0)
		for i := 0; i < calibChaseHops; i++ {
			p = next[p]
			s += uint64(p) * 2654435761
		}
		calibSink += s
	}
	return time.Since(start).Seconds()
}
