package parallel

import (
	"repro/internal/obs"
)

// The pool's telemetry instruments are package-level: every pool user in
// the process (sweeps, Monte Carlo, batch fan-out, wafer maps) feeds the
// same two histograms, and scrapers attach them to their registry via
// the accessors below (obs.Histogram is registry-independent by design).
//
//   - chunk queue-wait: submission of the chunked job to the moment a
//     worker picks the chunk up. Rising wait with flat exec means the
//     pool is starved for workers, not that chunks got heavier.
//   - chunk execution: the fn(chunk) call itself.
//
// Observation happens once per chunk, not per item, so the cost is
// amortized over chunkSize items. Timing does steer scheduling in one
// place: a cold ChunkTuner seeds its grouping from the execution
// histogram's mean (ChunkTuner.Group). Grouping sets only how many unit
// chunks one task covers, never a chunk's bounds or RNG stream, so it
// cannot perturb the engine's determinism contract.
var (
	chunkWaitSeconds = obs.NewHistogram(obs.DurationBuckets)
	chunkExecSeconds = obs.NewHistogram(obs.DurationBuckets)
)

// ChunkWaitSeconds returns the process-wide chunk queue-wait histogram.
func ChunkWaitSeconds() *obs.Histogram { return chunkWaitSeconds }

// ChunkExecSeconds returns the process-wide chunk execution-time
// histogram.
func ChunkExecSeconds() *obs.Histogram { return chunkExecSeconds }
