package main

import (
	"crypto/sha256"
	"math"
	"slices"
	"sync"
	"syscall"
	"time"
)

// The shared host this benchmark runs on changes speed by a quarter or
// more, over seconds within a run and over minutes between runs, as other
// tenants come and go; the guest sees no steal time for it. So the run
// reads the host's speed between its measured parts with a fixed
// reference loop that depends on nothing in the repository, and reports
// each CPU-bound part at the speed at which the host runs that loop in
// refLoopSeconds.

// refLoopSeconds is referenceLoop's fastest time on the 2-CPU host the
// benchmark was written on. It only sets the scale of the adjusted
// metrics.
const refLoopSeconds = 0.022

// workExponent is how much harder than the reference loop the other
// tenants slow the fleet's CPU-bound work: a part's time goes as the
// host's slowdown to this power. Fitted over ten jobs runs whose readings
// spanned 0.85 to 1.26: job-list times went as the slowdown to the power
// 1.5 and result-fetch throughput to 1.85 (regressions over 102
// repetitions); over runs, the spread of both was least near 1.75.
const workExponent = 1.75

// readingLoops is how many reference loops one reading of the host's
// speed times; the fastest of them is the reading.
const readingLoops = 8

// referenceLoop runs a fixed chain of sha256 hashes on two goroutines, one
// per CPU of the host, and returns its wall time in seconds.
func referenceLoop() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var h [sha256.Size]byte
			for i := 0; i < 200_000; i++ {
				h = sha256.Sum256(h[:])
			}
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// readSlowdown is how much slower than refLoopSeconds the host runs the
// reference loop now, at the fastest of readingLoops tries.
func readSlowdown() float64 {
	loops := make([]float64, readingLoops)
	for i := range loops {
		loops[i] = referenceLoop()
	}
	return slices.Min(loops) / refLoopSeconds
}

// hostGauge reads the host's slowdown between the measured parts of a
// run. Each part is scaled by the readings just before and just after
// it, so a part that ran in a slow stretch of the host is scaled by that
// stretch. While it reads, the processes of the fleet under test are
// stopped (SIGSTOP), so nothing the program does can slow a reading and
// pass for host noise.
type hostGauge struct {
	read  func() float64
	pause func() []*proc
	prev  float64
}

func newHostGauge(fleet func() []*proc) *hostGauge {
	return &hostGauge{read: readSlowdown, pause: fleet}
}

// reading takes one reading with the fleet stopped.
func (g *hostGauge) reading() float64 {
	var stopped []*proc
	if g.pause != nil {
		for _, p := range g.pause() {
			if p.cmd.Process.Signal(syscall.SIGSTOP) == nil {
				stopped = append(stopped, p)
			}
		}
	}
	s := g.read()
	for _, p := range stopped {
		_ = p.cmd.Process.Signal(syscall.SIGCONT)
	}
	return s
}

// start takes the reading that precedes the first measured part.
func (g *hostGauge) start() { g.prev = g.reading() }

// lap ends the part measured since the previous reading and returns the
// factor by which the host slowed the fleet's work in it: the mean of the
// two readings to the power workExponent.
func (g *hostGauge) lap() float64 {
	now := g.reading()
	s := math.Pow((g.prev+now)/2, workExponent)
	g.prev = now
	return s
}
