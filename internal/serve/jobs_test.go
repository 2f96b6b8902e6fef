package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitForJob polls the status endpoint until the job leaves "running" or
// the deadline passes, and returns the final status body.
func waitForJob(t *testing.T, s *Server, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, _, body := do(t, s, "GET", "/v1/jobs/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("status poll = %d, body %v", code, body)
		}
		if st, _ := body["state"].(string); st != "running" {
			return body
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s still running after 30s", id)
	return nil
}

func TestJobLifecycleDefect(t *testing.T) {
	s := newTestServer(t, Config{})
	spec := `{"kind":"defect","trials":200000,"shards":4,"seed":7,"defect":{"lambda":1.3}}`

	code, _, body := do(t, s, "POST", "/v1/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202 (body %v)", code, body)
	}
	id, _ := body["id"].(string)
	if len(id) != 16 {
		t.Fatalf("job id = %q, want 16 hex chars", id)
	}
	if body["kind"] != "defect" || body["trials"] != float64(200000) {
		t.Fatalf("submit echo = %v", body)
	}

	final := waitForJob(t, s, id)
	if final["state"] != "done" {
		t.Fatalf("final state = %v (%v)", final["state"], final["error"])
	}
	if final["shards_done"] != float64(4) || final["trials_done"] != float64(200000) {
		t.Fatalf("progress in final status = %v", final)
	}
	if final["result_url"] != "/v1/jobs/"+id+"/result" {
		t.Fatalf("result_url = %v", final["result_url"])
	}

	rcode, _, raw := rawDo(t, s, "GET", "/v1/jobs/"+id+"/result", "")
	if rcode != http.StatusOK {
		t.Fatalf("result = %d: %s", rcode, raw)
	}
	var env struct {
		ID     string `json:"id"`
		Kind   string `json:"kind"`
		Result struct {
			Trials int64              `json:"trials"`
			Counts map[string]int64   `json:"counts"`
			Values map[string]float64 `json:"values"`
		} `json:"result"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("result body: %v", err)
	}
	if env.ID != id || env.Kind != "defect" || env.Result.Trials != 200000 {
		t.Fatalf("result envelope = %+v", env)
	}
	if g := env.Result.Counts["good"]; g <= 0 || g >= 200000 {
		t.Fatalf("good = %d, want interior", g)
	}
	y := env.Result.Values["yield"]
	if !(y > 0.2 && y < 0.35) { // exp(-1.3) ≈ 0.273
		t.Fatalf("yield = %v, want ≈ exp(-1.3)", y)
	}

	// Re-submitting the identical spec attaches to the tracked job: 200,
	// same id, and the result bytes are served verbatim.
	code2, _, body2 := do(t, s, "POST", "/v1/jobs", spec)
	if code2 != http.StatusOK || body2["id"] != id {
		t.Fatalf("resubmit = %d %v, want 200 with id %s", code2, body2, id)
	}
	_, _, raw2 := rawDo(t, s, "GET", "/v1/jobs/"+id+"/result", "")
	if !bytes.Equal(raw, raw2) {
		t.Fatalf("result bytes changed across reads")
	}
}

func TestJobSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{}) // no JobDir: checkpoint requests must fail
	cases := []struct {
		name string
		body string
	}{
		{"unknown kind", `{"kind":"quantum","trials":10,"defect":{"lambda":1}}`},
		{"no spec", `{"kind":"defect","trials":10}`},
		{"two specs", `{"kind":"defect","trials":10,"defect":{"lambda":1},"wafermap":{"usable_radius_mm":30,"die_w_mm":5,"die_h_mm":5,"lambda":0.5}}`},
		{"kind spec mismatch", `{"kind":"wafermap","trials":10,"defect":{"lambda":1}}`},
		{"zero trials", `{"kind":"defect","trials":0,"defect":{"lambda":1}}`},
		{"oversized trials", `{"kind":"defect","trials":1e15,"defect":{"lambda":1}}`},
		{"negative shards", `{"kind":"defect","trials":10,"shards":-1,"defect":{"lambda":1}}`},
		{"bad lambda", `{"kind":"defect","trials":10,"defect":{"lambda":-2}}`},
		{"checkpoint without job dir", `{"kind":"defect","trials":10,"checkpoint":true,"defect":{"lambda":1}}`},
		{"bad dist kind", `{"kind":"montecarlo","trials":10,"montecarlo":{"scenario":` + validScenario + `,"yield":{"kind":"beta","lo":0,"hi":1}}}`},
		{"bad dist bounds", `{"kind":"montecarlo","trials":10,"montecarlo":{"scenario":` + validScenario + `,"sd":{"kind":"uniform","lo":400,"hi":300}}}`},
		{"unknown field", `{"kind":"defect","trials":10,"defect":{"lambda":1},"bogus":true}`},
		{"oversized wafermap lot", `{"kind":"wafermap","trials":100000000,"wafermap":{"usable_radius_mm":30,"die_w_mm":5,"die_h_mm":5,"lambda":0.5}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, body := do(t, s, "POST", "/v1/jobs", tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %v)", code, body)
			}
			if got := errCode(t, body); got != "invalid_request" && got != "out_of_domain" {
				t.Fatalf("error code = %q", got)
			}
		})
	}
}

func TestJobUnknownID(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, req := range [][2]string{
		{"GET", "/v1/jobs/deadbeefdeadbeef"},
		{"GET", "/v1/jobs/deadbeefdeadbeef/result"},
		{"DELETE", "/v1/jobs/deadbeefdeadbeef"},
	} {
		code, _, body := do(t, s, req[0], req[1], "")
		if code != http.StatusNotFound || errCode(t, body) != "job_not_found" {
			t.Fatalf("%s %s = %d %v, want 404 job_not_found", req[0], req[1], code, body)
		}
	}
}

// TestJobCancelAndResultNotReady submits a job big enough to still be
// running at first poll, checks the 409 result race answer, cancels it,
// and verifies the terminal state.
func TestJobCancelAndResultNotReady(t *testing.T) {
	s := newTestServer(t, Config{})
	spec := `{"kind":"defect","trials":4000000000,"seed":3,"defect":{"lambda":0.9}}`
	code, _, body := do(t, s, "POST", "/v1/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d %v", code, body)
	}
	id := body["id"].(string)

	rcode, _, rbody := do(t, s, "GET", "/v1/jobs/"+id+"/result", "")
	if rcode != http.StatusConflict || errCode(t, rbody) != "result_not_ready" {
		t.Fatalf("early result = %d %v, want 409 result_not_ready", rcode, rbody)
	}

	dcode, _, dbody := do(t, s, "DELETE", "/v1/jobs/"+id, "")
	if dcode != http.StatusOK {
		t.Fatalf("cancel = %d %v", dcode, dbody)
	}
	final := waitForJob(t, s, id)
	if final["state"] != "cancelled" {
		t.Fatalf("state after cancel = %v", final["state"])
	}
	rcode, _, rbody = do(t, s, "GET", "/v1/jobs/"+id+"/result", "")
	if rcode != http.StatusConflict || errCode(t, rbody) != "job_cancelled" {
		t.Fatalf("result after cancel = %d %v, want 409 job_cancelled", rcode, rbody)
	}
}

func TestJobSaturation(t *testing.T) {
	s := newTestServer(t, Config{MaxJobs: 1})
	big := `{"kind":"defect","trials":4000000000,"seed":11,"defect":{"lambda":0.7}}`
	code, _, body := do(t, s, "POST", "/v1/jobs", big)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d %v", code, body)
	}
	id := body["id"].(string)

	code2, hdr, body2 := do(t, s, "POST", "/v1/jobs", `{"kind":"defect","trials":1000,"seed":12,"defect":{"lambda":0.7}}`)
	if code2 != http.StatusTooManyRequests || errCode(t, body2) != "jobs_saturated" {
		t.Fatalf("saturated submit = %d %v, want 429 jobs_saturated", code2, body2)
	}
	_ = hdr

	// Re-submitting the running spec is not a new job and must still work.
	code3, _, body3 := do(t, s, "POST", "/v1/jobs", big)
	if code3 != http.StatusOK || body3["id"] != id {
		t.Fatalf("attach while saturated = %d %v", code3, body3)
	}
	if _, _, b := do(t, s, "DELETE", "/v1/jobs/"+id, ""); b["state"] == "running" {
		waitForJob(t, s, id)
	}
}

// TestJobCheckpointResumeByteIdentical is the serve-level half of the
// resume guarantee: a second server pointed at the same job dir resumes
// every shard from the checkpoint (drawing nothing) and serves a result
// byte-identical to the first run's, and its timeline starts with the
// first server's events, byte for byte.
func TestJobCheckpointResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := `{"kind":"defect","trials":300000,"shards":8,"seed":21,"checkpoint":true,"defect":{"lambda":1.1,"alpha":2}}`

	s1 := newTestServer(t, Config{JobDir: dir})
	_, _, body := do(t, s1, "POST", "/v1/jobs", spec)
	id := body["id"].(string)
	if st := waitForJob(t, s1, id)["state"]; st != "done" {
		t.Fatalf("first run state = %v", st)
	}
	_, _, raw1 := rawDo(t, s1, "GET", "/v1/jobs/"+id+"/result", "")
	_, _, evRaw1 := rawDo(t, s1, "GET", "/v1/jobs/"+id+"/events", "")
	s1.Close()

	s2 := newTestServer(t, Config{JobDir: dir})
	code, _, body2 := do(t, s2, "POST", "/v1/jobs", spec)
	if code != http.StatusAccepted || body2["id"] != id {
		t.Fatalf("resubmit on fresh server = %d %v", code, body2)
	}
	final := waitForJob(t, s2, id)
	if final["state"] != "done" {
		t.Fatalf("resumed state = %v (%v)", final["state"], final["error"])
	}
	if final["shards_resumed"] != float64(8) {
		t.Fatalf("shards_resumed = %v, want 8 (nothing redrawn)", final["shards_resumed"])
	}
	_, _, raw2 := rawDo(t, s2, "GET", "/v1/jobs/"+id+"/result", "")
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("resumed result differs:\n%s\n%s", raw1, raw2)
	}

	_, _, evRaw2 := rawDo(t, s2, "GET", "/v1/jobs/"+id+"/events", "")
	var ev1, ev2 struct{ Events []json.RawMessage }
	if err := json.Unmarshal(evRaw1, &ev1); err != nil {
		t.Fatalf("first events: %v\n%s", err, evRaw1)
	}
	if err := json.Unmarshal(evRaw2, &ev2); err != nil {
		t.Fatalf("resumed events: %v\n%s", err, evRaw2)
	}
	if len(ev1.Events) == 0 || len(ev2.Events) <= len(ev1.Events) {
		t.Fatalf("resumed timeline has %d events, first run %d; want the first run's and more", len(ev2.Events), len(ev1.Events))
	}
	for i, e := range ev1.Events {
		if !bytes.Equal(e, ev2.Events[i]) {
			t.Fatalf("resumed timeline event %d = %s, want the first server's %s", i, ev2.Events[i], e)
		}
	}
	if bytes.Contains(evRaw2, []byte(`"chunks"`)) {
		t.Fatalf("events body carries the job log's chunks: %s", evRaw2)
	}
	entries, err := os.ReadDir(filepath.Join(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name() != "MANIFEST.json" || entries[1].Name() != "shards.ndjson" {
		t.Fatalf("job dir holds %v, want only MANIFEST.json and the job log", entries)
	}
}

// TestJobCheckpointMismatchConflicts: a job whose checkpoint directory
// holds another spec's manifest is refused at submit with 409
// checkpoint_mismatch and never tracked — on a plain replica exactly as
// on a -distribute one, since both build the job's coordinator there.
func TestJobCheckpointMismatchConflicts(t *testing.T) {
	spec := `{"kind":"defect","trials":100000,"shards":2,"seed":3,"checkpoint":true,"defect":{"lambda":1}}`
	var req jobRequest
	if err := json.Unmarshal([]byte(spec), &req); err != nil {
		t.Fatal(err)
	}
	k, err := buildKernel(req)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := jobID(req, k)
	for _, distribute := range []bool{false, true} {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, id), 0o755); err != nil {
			t.Fatal(err)
		}
		other := `{"version":1,"kind":"defect","trials":1,"chunk_trials":8192,"shards":1,"seed":3}` + "\n"
		if err := os.WriteFile(filepath.Join(dir, id, "MANIFEST.json"), []byte(other), 0o644); err != nil {
			t.Fatal(err)
		}
		s := newTestServer(t, Config{JobDir: dir, DistributeJobs: distribute})
		code, _, body := do(t, s, "POST", "/v1/jobs", spec)
		if code != http.StatusConflict || errCode(t, body) != "checkpoint_mismatch" {
			t.Fatalf("distribute=%v: submit over another spec's checkpoint = %d %v, want 409 checkpoint_mismatch", distribute, code, body)
		}
		if code, _, body := do(t, s, "GET", "/v1/jobs/"+id, ""); code != http.StatusNotFound {
			t.Fatalf("distribute=%v: refused job is tracked: %d %v", distribute, code, body)
		}
	}
}

// TestJobConcurrentSubmitsAttach: identical checkpointed submits racing
// each other create one job and one coordinator — the first answers 202,
// every other attaches with 200 — so the shard log is never opened by
// two coordinators at once.
func TestJobConcurrentSubmitsAttach(t *testing.T) {
	s := newTestServer(t, Config{JobDir: t.TempDir(), MaxInFlight: 64})
	spec := `{"kind":"defect","trials":4000000,"shards":8,"seed":2,"checkpoint":true,"defect":{"lambda":1}}`
	const n = 8
	codes := make([]int, n)
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(spec)))
			codes[i] = rec.Code
			var st jobStatusJSON
			if json.Unmarshal(rec.Body.Bytes(), &st) == nil {
				ids[i] = st.ID
			}
		}(i)
	}
	wg.Wait()
	created := 0
	for i := range codes {
		if codes[i] == http.StatusAccepted {
			created++
		} else if codes[i] != http.StatusOK {
			t.Fatalf("submit %d = %d, want 202 or 200", i, codes[i])
		}
		if ids[i] == "" || ids[i] != ids[0] {
			t.Fatalf("submit %d answered job %q, want %q", i, ids[i], ids[0])
		}
	}
	if created != 1 {
		t.Fatalf("%d submits created a job, want exactly 1", created)
	}
	if final := waitForJob(t, s, ids[0]); final["state"] != "done" {
		t.Fatalf("final state = %v (%v)", final["state"], final["error"])
	}
}

// TestJobNDJSONProgressStream drives the streaming status variant: at
// least one progress line, terminating with the job's terminal state.
func TestJobNDJSONProgressStream(t *testing.T) {
	s := newTestServer(t, Config{})
	_, _, body := do(t, s, "POST", "/v1/jobs", `{"kind":"defect","trials":100000,"shards":2,"seed":5,"defect":{"lambda":1}}`)
	id := body["id"].(string)

	req := httptest.NewRequest("GET", "/v1/jobs/"+id, nil)
	req.Header.Set("Accept", "application/x-ndjson")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("stream status = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) < 1 {
		t.Fatalf("no progress lines")
	}
	var last jobStatusJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if last.State != "done" || last.ID != id || last.ShardsDone != 2 {
		t.Fatalf("terminal stream line = %+v", last)
	}
	for _, l := range lines {
		var st jobStatusJSON
		if err := json.Unmarshal([]byte(l), &st); err != nil {
			t.Fatalf("stream line %q: %v", l, err)
		}
	}
}

// TestJobMontecarloAndWaferMapKinds smoke-runs the remaining job kinds
// through the HTTP surface.
func TestJobMontecarloAndWaferMapKinds(t *testing.T) {
	s := newTestServer(t, Config{})

	mc := `{"kind":"montecarlo","trials":20000,"seed":9,"montecarlo":{"scenario":` + validScenario +
		`,"yield":{"kind":"uniform","lo":0.3,"hi":0.6},"sd":{"kind":"uniform","lo":250,"hi":400}}}`
	_, _, body := do(t, s, "POST", "/v1/jobs", mc)
	final := waitForJob(t, s, body["id"].(string))
	if final["state"] != "done" {
		t.Fatalf("montecarlo job = %v (%v)", final["state"], final["error"])
	}
	_, _, raw := rawDo(t, s, "GET", "/v1/jobs/"+body["id"].(string)+"/result", "")
	var env struct {
		Result struct {
			Values map[string]float64 `json:"values"`
		} `json:"result"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.Result.Values["mean"] <= 0 {
		t.Fatalf("montecarlo mean = %v", env.Result.Values["mean"])
	}

	wm := `{"kind":"wafermap","trials":25,"seed":4,"wafermap":{"usable_radius_mm":40,"die_w_mm":8,"die_h_mm":6,"lambda":0.6,"edge_factor":2}}`
	_, _, body = do(t, s, "POST", "/v1/jobs", wm)
	final = waitForJob(t, s, body["id"].(string))
	if final["state"] != "done" {
		t.Fatalf("wafermap job = %v (%v)", final["state"], final["error"])
	}
	if final["trials_done"] != float64(25) {
		t.Fatalf("wafermap trials_done = %v", final["trials_done"])
	}
}
