package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/mcjob"
)

// This file is the coordinator side of the distributed-job wire
// protocol. A peer replica's worker loop drives three endpoints:
//
//	GET  /v1/jobs/open           — running distributed jobs with grantable shards
//	POST /v1/jobs/{id}/lease     — renew the owner's leases, acquire up to max more
//	POST /v1/jobs/{id}/partials  — upload one computed shard's chunk Partials
//
// Every shard's partials are deterministic functions of the job spec,
// so the protocol needs no exactly-once delivery: expired leases are
// re-granted, duplicate uploads are refused idempotently, and the
// coordinator's canonical-order fold makes the merged result
// bit-identical to a single-host run regardless of who computed what.

// maxPartialsBodyBytes caps a shard-partial upload. One chunk Partial
// is ~100 bytes of JSON; 64 MiB covers ~650k chunks per shard, far past
// any plan the job layer admits at default shard counts.
const maxPartialsBodyBytes int64 = 64 << 20

// openJobJSON is one entry of the GET /v1/jobs/open listing: enough for
// a worker to rebuild the kernel (Spec is the original jobRequest) and
// decide whether leasing is worthwhile.
type openJobJSON struct {
	ID             string          `json:"id"`
	Kind           string          `json:"kind"`
	LeaseTTLMS     int64           `json:"lease_ttl_ms"`
	PendingShards  int             `json:"pending_shards"`
	LeasableShards int             `json:"leasable_shards"`
	Spec           json.RawMessage `json:"spec"`
}

type openJobsResponse struct {
	Jobs []openJobJSON `json:"jobs"`
}

// leaseRequest is the POST /v1/jobs/{id}/lease body. Max 0 is a pure
// renewal heartbeat.
type leaseRequest struct {
	Owner string `json:"owner"`
	Max   int    `json:"max,omitempty"`
}

type leaseResponse struct {
	Job     string        `json:"job"`
	State   string        `json:"state"`
	TTLMS   int64         `json:"ttl_ms"`
	Renewed int           `json:"renewed"`
	Leases  []mcjob.Lease `json:"leases,omitempty"`
}

// partialsRequest is the POST /v1/jobs/{id}/partials body: one computed
// shard's per-chunk tallies in chunk order, using the checkpoint log's
// compact Partial wire type.
type partialsRequest struct {
	Owner   string          `json:"owner"`
	Shard   int             `json:"shard"`
	Seconds float64         `json:"seconds,omitempty"`
	Chunks  []mcjob.Partial `json:"chunks"`
}

type partialsResponse struct {
	Job       string `json:"job"`
	Shard     int    `json:"shard"`
	Accepted  bool   `json:"accepted"`
	Duplicate bool   `json:"duplicate"`
	State     string `json:"state"`
}

// handleJobsOpen lists running distributed jobs that currently have
// grantable shards, in submission order.
func (s *Server) handleJobsOpen(w http.ResponseWriter, r *http.Request) (any, error) {
	resp := openJobsResponse{Jobs: []openJobJSON{}}
	s.jobs.mu.Lock()
	ids := append([]string(nil), s.jobs.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		if j := s.jobs.jobs[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	s.jobs.mu.Unlock()
	for _, j := range jobs {
		if !j.distributed || j.terminal() {
			continue
		}
		leasable := j.coord.Leasable()
		if leasable == 0 {
			continue
		}
		resp.Jobs = append(resp.Jobs, openJobJSON{
			ID: j.id, Kind: j.kind,
			LeaseTTLMS:     j.coord.TTL().Milliseconds(),
			PendingShards:  j.coord.Pending(),
			LeasableShards: leasable,
			Spec:           j.specJSON,
		})
	}
	return resp, nil
}

// distributedJob resolves {id} to a running distributed job, mapping
// the failure modes to the API's error codes.
func (s *Server) distributedJob(r *http.Request) (*job, error) {
	j := s.jobs.get(trimmedPathValue(r, "id"))
	if j == nil {
		return nil, jobNotFound(r)
	}
	if !j.distributed {
		return nil, &apiError{status: http.StatusConflict, code: "job_not_distributed",
			err: fmt.Errorf("job %s is not open to peer replicas", j.id)}
	}
	return j, nil
}

// handleJobLease renews every lease the owner already holds, then
// grants up to Max additional shards. A terminal job answers with zero
// leases and its state, which tells the worker to move on.
func (s *Server) handleJobLease(w http.ResponseWriter, r *http.Request) (any, error) {
	req, err := decodeJSON[leaseRequest](r)
	if err != nil {
		return nil, err
	}
	if req.Owner == "" {
		return nil, badRequest(fmt.Errorf("lease request must name its owner"))
	}
	if req.Max < 0 || req.Max > 1<<20 {
		return nil, badRequest(fmt.Errorf("lease max must be in [0, %d], got %d", 1<<20, req.Max))
	}
	j, err := s.distributedJob(r)
	if err != nil {
		return nil, err
	}
	renewed := j.coord.Renew(req.Owner)
	if renewed > 0 {
		s.metrics.jobLeasesTotal.With("renewed").Inc()
	}
	leases := j.coord.Acquire(req.Owner, req.Max)
	for range leases {
		s.metrics.jobLeasesTotal.With("granted").Inc()
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	return leaseResponse{
		Job: j.id, State: state,
		TTLMS:   j.coord.TTL().Milliseconds(),
		Renewed: renewed,
		Leases:  leases,
	}, nil
}

// handleJobPartials folds one uploaded shard into the job's canonical
// merge. Idempotent: re-uploading a merged shard answers
// duplicate=true with a 200, so worker retries and zombie workers whose
// leases were reclaimed are harmless. Geometry mismatches (wrong chunk
// count or per-chunk trial tallies) are 400s — they mean the worker
// built a different plan than the coordinator.
func (s *Server) handleJobPartials(w http.ResponseWriter, r *http.Request) (any, error) {
	req, err := decodeJSON[partialsRequest](r)
	if err != nil {
		return nil, err
	}
	j, err := s.distributedJob(r)
	if err != nil {
		return nil, err
	}
	accepted, err := j.coord.Submit(req.Owner, req.Shard, req.Chunks, req.Seconds)
	if err != nil {
		s.metrics.jobPartialsTotal.With("rejected").Inc()
		if errors.Is(err, mcjob.ErrBadSubmission) {
			return nil, badRequest(err)
		}
		return nil, err
	}
	if accepted {
		s.metrics.jobPartialsTotal.With("accepted").Inc()
	} else {
		s.metrics.jobPartialsTotal.With("duplicate").Inc()
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	return partialsResponse{
		Job: j.id, Shard: req.Shard,
		Accepted:  accepted,
		Duplicate: !accepted,
		State:     state,
	}, nil
}
