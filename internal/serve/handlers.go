package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/maskcost"
	"repro/internal/memo"
	"repro/internal/report"
	"repro/internal/yield"
)

// processJSON mirrors core.Process. CostPerCM2 defaults to the paper's
// 8 $/cm² and WaferAreaCM2 to 300 cm² when omitted; λ and Y are required.
type processJSON struct {
	Name         string  `json:"name,omitempty"`
	LambdaUM     float64 `json:"lambda_um"`
	CostPerCM2   float64 `json:"cost_per_cm2,omitempty"`
	Yield        float64 `json:"yield"`
	WaferAreaCM2 float64 `json:"wafer_area_cm2,omitempty"`
}

// designJSON mirrors core.Design.
type designJSON struct {
	Name        string  `json:"name,omitempty"`
	Transistors float64 `json:"transistors"`
	Sd          float64 `json:"sd"`
}

// designCostJSON mirrors core.DesignCostModel (eq (6) calibration).
type designCostJSON struct {
	A0  float64 `json:"a0"`
	P1  float64 `json:"p1"`
	P2  float64 `json:"p2"`
	Sd0 float64 `json:"sd0"`
}

func (m designCostJSON) toModel() core.DesignCostModel {
	return core.DesignCostModel{A0: m.A0, P1: m.P1, P2: m.P2, Sd0: m.Sd0}
}

// scenarioJSON is the request shape shared by /v1/cost, /v1/generalized
// and /v1/sweep: everything eq (4) needs. A nil DesignCost uses the
// paper's published eq (6) calibration; a nil MaskCost prices the mask set
// with the node-dependent default model at the request's λ.
type scenarioJSON struct {
	Process     processJSON     `json:"process"`
	Design      designJSON      `json:"design"`
	DesignCost  *designCostJSON `json:"design_cost,omitempty"`
	MaskCost    *float64        `json:"mask_cost,omitempty"`
	Wafers      float64         `json:"wafers"`
	Utilization float64         `json:"utilization,omitempty"`
}

// toScenario assembles and validates the core.Scenario. Every failure is a
// 400: the request described parameters the model has no answer for.
func (j scenarioJSON) toScenario() (core.Scenario, error) {
	p := core.Process{
		Name:         j.Process.Name,
		LambdaUM:     j.Process.LambdaUM,
		CostPerCM2:   j.Process.CostPerCM2,
		Yield:        j.Process.Yield,
		WaferAreaCM2: j.Process.WaferAreaCM2,
	}
	if p.CostPerCM2 == 0 {
		p.CostPerCM2 = 8.0
	}
	if p.WaferAreaCM2 == 0 {
		p.WaferAreaCM2 = 300
	}
	dcm := core.DefaultDesignCostModel()
	if j.DesignCost != nil {
		dcm = j.DesignCost.toModel()
	}
	var mask float64
	if j.MaskCost != nil {
		mask = *j.MaskCost
	} else {
		var err error
		mask, err = maskcost.DefaultModel().SetCost(p.LambdaUM)
		if err != nil {
			return core.Scenario{}, badRequest(fmt.Errorf("default mask model: %w", err))
		}
	}
	s := core.Scenario{
		Process:     p,
		Design:      core.Design{Name: j.Design.Name, Transistors: j.Design.Transistors, Sd: j.Design.Sd},
		DesignCost:  dcm,
		MaskCost:    mask,
		Wafers:      j.Wafers,
		Utilization: j.Utilization,
	}
	if err := s.Validate(); err != nil {
		return core.Scenario{}, badRequest(err)
	}
	return s, nil
}

// breakdownJSON mirrors core.Breakdown with wire-stable names.
type breakdownJSON struct {
	Manufacturing float64 `json:"manufacturing"`
	DesignAndMask float64 `json:"design_and_mask"`
	Total         float64 `json:"total"`
	CmSq          float64 `json:"cm_sq"`
	CdSq          float64 `json:"cd_sq"`
	DieAreaCM2    float64 `json:"die_area_cm2"`
	DieCost       float64 `json:"die_cost"`
	DesignDE      float64 `json:"design_de"`
}

func toBreakdownJSON(b core.Breakdown) breakdownJSON {
	return breakdownJSON{
		Manufacturing: b.Manufacturing,
		DesignAndMask: b.DesignAndMask,
		Total:         b.Total,
		CmSq:          b.CmSq,
		CdSq:          b.CdSq,
		DieAreaCM2:    b.DieArea,
		DieCost:       b.DieCost,
		DesignDE:      b.DesignDE,
	}
}

// handleCost evaluates eq (1)–(5): the full per-transistor cost breakdown
// of one scenario.
func (s *Server) handleCost(w http.ResponseWriter, r *http.Request) (any, error) {
	req, err := decodeJSON[scenarioJSON](r)
	if err != nil {
		return nil, err
	}
	return evalCost(r.Context(), req)
}

// evalCost is the shared evaluation core of POST /v1/cost and of "cost"
// batch items: single-scenario and batched evaluations go through the one
// code path, so a batch item's result is byte-identical to the individual
// call's body.
func evalCost(ctx context.Context, req scenarioJSON) (any, error) {
	sc, err := req.toScenario()
	if err != nil {
		return nil, err
	}
	b, err := sc.TransistorCostCtx(ctx)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, badRequest(err)
	}
	return map[string]any{"breakdown": toBreakdownJSON(b)}, nil
}

// designCostRequest is the /v1/designcost payload: a design size, a
// decompression index and an optional eq (6) calibration.
type designCostRequest struct {
	Transistors float64         `json:"transistors"`
	Sd          float64         `json:"sd"`
	Model       *designCostJSON `json:"model,omitempty"`
}

// handleDesignCost evaluates eq (6). The pole at s_d ≤ s_d0 surfaces as a
// 400 with code "out_of_domain" — never as Inf, NaN or a negative dollar
// figure in the response body.
func (s *Server) handleDesignCost(w http.ResponseWriter, r *http.Request) (any, error) {
	req, err := decodeJSON[designCostRequest](r)
	if err != nil {
		return nil, err
	}
	return evalDesignCost(r.Context(), req)
}

// evalDesignCost is the shared evaluation core of POST /v1/designcost and
// of "designcost" batch items.
func evalDesignCost(ctx context.Context, req designCostRequest) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := core.DefaultDesignCostModel()
	if req.Model != nil {
		m = req.Model.toModel()
	}
	cost, err := m.Cost(req.Transistors, req.Sd)
	if err != nil {
		return nil, badRequest(err)
	}
	marginal, err := m.MarginalCost(req.Transistors, req.Sd)
	if err != nil {
		return nil, badRequest(err)
	}
	return map[string]any{
		"design_cost":   cost,
		"marginal_cost": marginal,
		"sd0":           m.Sd0,
	}, nil
}

// yieldModelJSON selects the analytic yield model of a /v1/generalized
// request: one of poisson, murphy, seeds or negbinomial (alpha required),
// driven by defect density d0 (defects/cm²) against the die area the
// scenario implies.
type yieldModelJSON struct {
	Model string  `json:"model"`
	Alpha float64 `json:"alpha,omitempty"`
	D0    float64 `json:"d0"`
}

func (j yieldModelJSON) toModel() (yield.Model, error) {
	switch j.Model {
	case "poisson":
		return yield.Poisson{}, nil
	case "murphy":
		return yield.Murphy{}, nil
	case "seeds":
		return yield.Seeds{}, nil
	case "negbinomial":
		m := yield.NegBinomial{Alpha: j.Alpha}
		if _, err := m.YieldE(0); err != nil {
			return nil, err
		}
		return m, nil
	default:
		return nil, fmt.Errorf("unknown yield model %q (want poisson, murphy, seeds or negbinomial)", j.Model)
	}
}

// generalizedRequest is the /v1/generalized payload: eq (7) = the eq (4)
// skeleton with utilization (carried inside the scenario) and, optionally,
// a yield model replacing the scalar Y.
type generalizedRequest struct {
	Scenario   scenarioJSON    `json:"scenario"`
	YieldModel *yieldModelJSON `json:"yield_model,omitempty"`
}

// handleGeneralized evaluates eq (7): FPGA-style utilization via the
// scenario's u, and a Y(A_w, λ, N_w, s_d, N_tr) functional dependence via
// the selected analytic yield model at the implied die area.
func (s *Server) handleGeneralized(w http.ResponseWriter, r *http.Request) (any, error) {
	req, err := decodeJSON[generalizedRequest](r)
	if err != nil {
		return nil, err
	}
	return evalGeneralized(r.Context(), req)
}

// evalGeneralized is the shared evaluation core of POST /v1/generalized
// and of "generalized" batch items.
func evalGeneralized(ctx context.Context, req generalizedRequest) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc, err := req.Scenario.toScenario()
	if err != nil {
		return nil, err
	}
	g := core.Generalized{Scenario: sc}
	effectiveYield := sc.Process.Yield
	if req.YieldModel != nil {
		m, err := req.YieldModel.toModel()
		if err != nil {
			return nil, badRequest(err)
		}
		d0 := req.YieldModel.D0
		if !(d0 >= 0) || math.IsInf(d0, 0) {
			return nil, badRequest(fmt.Errorf("defect density d0 must be a finite non-negative number, got %v", d0))
		}
		g.YieldFn = func(waferAreaCM2, lambdaUM, wafers, sd, transistors float64) float64 {
			area, err := core.DieArea(transistors, lambdaUM, sd)
			if err != nil {
				return 0 // rejected by the (0,1] yield check in TransistorCost
			}
			return m.Yield(d0 * area)
		}
		effectiveYield = g.YieldFn(sc.Process.WaferAreaCM2, sc.Process.LambdaUM, sc.Wafers,
			sc.Design.Sd, sc.Design.Transistors)
	}
	b, err := g.TransistorCost()
	if err != nil {
		return nil, badRequest(err)
	}
	u := sc.Utilization
	if u == 0 {
		u = 1 // the Scenario zero value means "fully utilized ASIC"
	}
	return map[string]any{
		"breakdown":       toBreakdownJSON(b),
		"effective_yield": effectiveYield,
		"utilization":     u,
	}, nil
}

// maxSweepPoints caps a single sweep request; larger design-space scans
// should be split client-side so one request cannot monopolize the pool.
const maxSweepPoints = 4096

// sweepRequest is the /v1/sweep payload: a base scenario and the axis to
// sweep — "sd" and "wafers" on a log grid, "yield" on a linear one.
type sweepRequest struct {
	Scenario scenarioJSON `json:"scenario"`
	Variable string       `json:"variable"`
	Lo       float64      `json:"lo"`
	Hi       float64      `json:"hi"`
	Points   int          `json:"points"`
}

// pointJSON is the wire form of one sweep sample, shared by the buffered
// and NDJSON-streamed sweep responses so both carry identical bytes per
// point.
type pointJSON struct {
	X         float64       `json:"x"`
	Breakdown breakdownJSON `json:"breakdown"`
}

// handleSweep runs a parameter sweep on the parallel engine, honoring the
// request deadline: an expired context aborts the remaining grid points.
// With "Accept: application/x-ndjson" the points stream chunk by chunk
// instead of buffering the whole grid in one response value.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) (any, error) {
	req, err := decodeJSON[sweepRequest](r)
	if err != nil {
		return nil, err
	}
	if req.Points < 2 || req.Points > maxSweepPoints {
		return nil, badRequest(fmt.Errorf("points must be in [2, %d], got %d", maxSweepPoints, req.Points))
	}
	sc, err := req.Scenario.toScenario()
	if err != nil {
		return nil, err
	}
	if wantsNDJSON(r) {
		return s.streamSweep(w, r, req, sc)
	}
	var pts []core.SweepPoint
	switch req.Variable {
	case "sd":
		pts, err = core.SweepSdCtx(r.Context(), sc, req.Lo, req.Hi, req.Points)
	case "wafers":
		pts, err = core.SweepVolumeCtx(r.Context(), sc, req.Lo, req.Hi, req.Points)
	case "yield":
		pts, err = core.SweepYieldCtx(r.Context(), sc, req.Lo, req.Hi, req.Points)
	default:
		return nil, badRequest(fmt.Errorf("unknown sweep variable %q (want sd, wafers or yield)", req.Variable))
	}
	if err != nil {
		if ctxErr := r.Context().Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, badRequest(err)
	}
	out := make([]pointJSON, len(pts))
	for i, p := range pts {
		out[i] = pointJSON{X: p.X, Breakdown: toBreakdownJSON(p.Breakdown)}
	}
	return map[string]any{"variable": req.Variable, "points": out}, nil
}

// seriesJSON and figureJSON are the wire form of report figures.
type seriesJSON struct {
	Name string    `json:"name"`
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
}

type figureJSON struct {
	Title  string       `json:"title"`
	XLabel string       `json:"x_label"`
	YLabel string       `json:"y_label"`
	LogY   bool         `json:"log_y,omitempty"`
	Series []seriesJSON `json:"series"`
}

func toFigureJSON(f *report.Figure) figureJSON {
	out := figureJSON{Title: f.Title, XLabel: f.XLabel, YLabel: f.YLabel, LogY: f.LogY}
	for _, s := range f.Series {
		out.Series = append(out.Series, seriesJSON{Name: s.Name, X: s.X, Y: s.Y})
	}
	return out
}

// maxFigurePoints caps the ?points= resolution of a figure regeneration.
// POST bodies are bounded by the 1 MiB body cap; this is the equivalent
// guard for the one GET parameter that sizes an allocation, so a crafted
// query string cannot demand an unbounded grid.
const maxFigurePoints = 10000

// defaultFigurePoints is the Figure 4 s_d resolution when ?points= is
// omitted.
const defaultFigurePoints = 48

// figurePayload is the memoized wire form of one figure response: the
// encoded JSON and NDJSON representations plus a strong ETag over each.
// Caching the bytes (not just the series) makes a repeat fetch a map
// lookup and an If-None-Match revalidation a string compare.
type figurePayload struct {
	body      []byte // {"id":...,"figures":[...]} + trailing newline
	etag      string // strong ETag over body
	ndjson    []byte // one figure object per line
	ndjsonTag string // strong ETag over ndjson
}

// figureCache memoizes regenerated paper figures keyed by (figure,
// resolution). Figures are pure functions of the request, so the cache is
// shared across requests and its hit rate shows up on /metrics.
var figureCache = memo.New[string, *figurePayload]("serve.figures", 16)

// figureResponse is the wire shape of GET /v1/figures/{id}.
type figureResponse struct {
	ID      string       `json:"id"`
	Figures []figureJSON `json:"figures"`
}

// handleFigure regenerates the data series behind paper Figures 1–4.
// Figure 4 accepts ?points= to control the s_d resolution of its two
// panels (default 48). Responses carry a strong ETag and Cache-Control;
// a matching If-None-Match answers 304 with no body. With
// "Accept: application/x-ndjson" the figures stream one per line.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) (any, error) {
	id := trimmedPathValue(r, "id")
	points := defaultFigurePoints
	if raw := r.URL.Query().Get("points"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 2 || n > maxFigurePoints {
			return nil, badRequest(fmt.Errorf("points must be an integer in [2, %d], got %q", maxFigurePoints, raw))
		}
		points = n
	}
	// Only Figure 4 consumes the resolution; folding it into the other
	// figures' keys would let ?points= fragment the cache with identical
	// payloads under distinct keys (and hand each a different ETag).
	key := id
	if id == "4" {
		key += ":" + strconv.Itoa(points)
	}
	p, err := figureCache.GetCtx(r.Context(), key, func(ctx context.Context) (*figurePayload, error) {
		return buildFigurePayload(ctx, id, points)
	})
	if err != nil {
		return nil, err
	}

	body, etag, contentType := p.body, p.etag, "application/json"
	streaming := wantsNDJSON(r)
	if streaming {
		body, etag, contentType = p.ndjson, p.ndjsonTag, "application/x-ndjson"
	}
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "public, max-age=3600")
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return wroteResponse{}, nil
	}
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	if streaming {
		s.streamLines(w, r.Context(), body)
	} else {
		w.Write(body)
	}
	return wroteResponse{}, nil
}

// buildFigurePayload is the cache-miss path of handleFigure: regenerate
// the figure series, encode both representations once, fingerprint them.
// ctx carries the filling request's trace (the regeneration runs under
// its memo.fill span) into the figure's sweeps and pool jobs.
func buildFigurePayload(ctx context.Context, id string, points int) (*figurePayload, error) {
	figs, err := buildFigure(ctx, id, points)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(figureResponse{ID: id, Figures: figs})
	if err != nil {
		return nil, err
	}
	body = append(body, '\n')
	var ndjson []byte
	for _, f := range figs {
		line, err := json.Marshal(f)
		if err != nil {
			return nil, err
		}
		ndjson = append(ndjson, line...)
		ndjson = append(ndjson, '\n')
	}
	return &figurePayload{
		body:      body,
		etag:      strongETag(body),
		ndjson:    ndjson,
		ndjsonTag: strongETag(ndjson),
	}, nil
}

// strongETag fingerprints a response representation as a strong ETag.
func strongETag(body []byte) string {
	sum := sha256.Sum256(body)
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// etagMatches implements the If-None-Match comparison: a comma-separated
// list of entity tags, or "*". Weak prefixes compare equal for GET
// revalidation (RFC 9110 §13.1.2 uses weak comparison for If-None-Match).
func etagMatches(ifNoneMatch, etag string) bool {
	if ifNoneMatch == "" {
		return false
	}
	for _, candidate := range strings.Split(ifNoneMatch, ",") {
		candidate = strings.TrimSpace(candidate)
		candidate = strings.TrimPrefix(candidate, "W/")
		if candidate == "*" || candidate == etag {
			return true
		}
	}
	return false
}

// buildFigure is the cache-miss path of handleFigure.
func buildFigure(ctx context.Context, id string, points int) ([]figureJSON, error) {
	switch id {
	case "1":
		_, fig, err := experiments.Figure1()
		if err != nil {
			return nil, err
		}
		return []figureJSON{toFigureJSON(fig)}, nil
	case "2":
		_, fig, err := experiments.Figure2()
		if err != nil {
			return nil, err
		}
		return []figureJSON{toFigureJSON(fig)}, nil
	case "3":
		_, fig, err := experiments.Figure3()
		if err != nil {
			return nil, err
		}
		return []figureJSON{toFigureJSON(fig)}, nil
	case "4":
		var out []figureJSON
		for _, c := range experiments.Figure4Cases() {
			_, fig, err := experiments.Figure4Ctx(ctx, c, points)
			if err != nil {
				return nil, err
			}
			out = append(out, toFigureJSON(fig))
		}
		return out, nil
	default:
		return nil, &apiError{status: http.StatusNotFound, code: "not_found",
			err: fmt.Errorf("unknown figure %q (want 1, 2, 3 or 4)", id)}
	}
}
