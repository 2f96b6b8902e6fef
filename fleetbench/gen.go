package main

import (
	"encoding/json"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/maskcost"
)

// request is one generated HTTP request of the serve workload. scenarios
// holds the core.Scenario of every cost item a batch carries, so the
// traced run can time the same work through core directly.
type request struct {
	method    string
	path      string
	body      []byte
	ndjson    bool
	kind      int // index into its pool's kinds
	scenarios []core.Scenario
}

// pool is a workload's distinct requests, grouped by kind. Traffic
// gives every kind an equal share: the repository has no record of real
// traffic to weight the kinds by.
type pool struct {
	reqs  []request
	kinds []poolKind
}

type poolKind struct {
	name string
	idx  []int // indices into reqs
}

// draw picks a kind, each with an equal share, then one of its requests.
func (p *pool) draw(r *rand.Rand) int {
	k := p.kinds[r.Intn(len(p.kinds))]
	return k.idx[r.Intn(len(k.idx))]
}

// sequence returns n draws from the pool, a pure function of seed.
func (p *pool) sequence(seed int64, n int) []int {
	r := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		out[i] = p.draw(r)
	}
	return out
}

// scenarioParams are the eq (4) inputs of one generated scenario.
type scenarioParams struct {
	lambda, yield, transistors, sd, wafers, util float64
}

// The paper's nodes and parameter ranges: λ from 0.35 µm to 70 nm,
// yields 0.3–0.95, s_d above the eq (6) pole at s_d0 = 100, production
// runs from 100 to 10⁵ wafers.
var lambdas = []float64{0.35, 0.25, 0.18, 0.13, 0.10, 0.07}

// maxDieCM2 keeps generated dies well inside the 300 cm² wafer.
const maxDieCM2 = 3.0

func genScenario(r *rand.Rand) scenarioParams {
	p := scenarioParams{
		lambda:      lambdas[r.Intn(len(lambdas))],
		yield:       round3(0.3 + 0.65*r.Float64()),
		transistors: math.Round(math.Pow(10, 6+2.3*r.Float64())),
		sd:          math.Round(150 * math.Pow(2000.0/150, r.Float64())),
		wafers:      math.Round(math.Pow(10, 2+3*r.Float64())),
	}
	// Die area in cm²: N_tr · s_d · λ², λ in µm.
	if area := p.transistors * p.sd * p.lambda * p.lambda * 1e-8; area > maxDieCM2 {
		p.transistors = math.Floor(p.transistors * maxDieCM2 / area)
	}
	if r.Intn(3) == 0 {
		p.util = round3(0.3 + 0.7*r.Float64())
	}
	return p
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// scenarioBody is the wire form of a scenario; the server fills in the
// paper's defaults for the omitted wafer price, wafer area, design-cost
// calibration and mask cost.
type scenarioBody struct {
	Process struct {
		LambdaUM float64 `json:"lambda_um"`
		Yield    float64 `json:"yield"`
	} `json:"process"`
	Design struct {
		Transistors float64 `json:"transistors"`
		Sd          float64 `json:"sd"`
	} `json:"design"`
	Wafers      float64 `json:"wafers"`
	Utilization float64 `json:"utilization,omitempty"`
}

func (p scenarioParams) body() scenarioBody {
	var b scenarioBody
	b.Process.LambdaUM, b.Process.Yield = p.lambda, p.yield
	b.Design.Transistors, b.Design.Sd = p.transistors, p.sd
	b.Wafers, b.Utilization = p.wafers, p.util
	return b
}

// coreScenario is the same scenario as the server builds it from body():
// 8 $/cm², a 300 cm² wafer, the published eq (6) calibration and the
// default mask model at λ.
func (p scenarioParams) coreScenario() core.Scenario {
	mask, err := maskcost.DefaultModel().SetCost(p.lambda)
	if err != nil {
		panic(err) // λ comes from the fixed node list, all positive
	}
	return core.Scenario{
		Process:     core.Process{LambdaUM: p.lambda, CostPerCM2: 8, Yield: p.yield, WaferAreaCM2: 300},
		Design:      core.Design{Transistors: p.transistors, Sd: p.sd},
		DesignCost:  core.DefaultDesignCostModel(),
		MaskCost:    mask,
		Wafers:      p.wafers,
		Utilization: p.util,
	}
}

type batchItem struct {
	Kind string `json:"kind"`
	Body any    `json:"body"`
}

// genItem draws one cost, designcost or generalized evaluation, as a
// batch item. cost items also return their core.Scenario.
func genItem(r *rand.Rand) (batchItem, *core.Scenario) {
	p := genScenario(r)
	switch r.Intn(3) {
	case 0:
		sc := p.coreScenario()
		return batchItem{Kind: "cost", Body: p.body()}, &sc
	case 1:
		return batchItem{Kind: "designcost", Body: map[string]float64{"transistors": p.transistors, "sd": p.sd}}, nil
	default:
		type yieldModel struct {
			Model string  `json:"model"`
			Alpha float64 `json:"alpha,omitempty"`
			D0    float64 `json:"d0"`
		}
		ym := yieldModel{Model: []string{"poisson", "murphy", "seeds", "negbinomial"}[r.Intn(4)], D0: round3(0.05 + 0.5*r.Float64())}
		if ym.Model == "negbinomial" {
			ym.Alpha = round3(0.5 + 3*r.Float64())
		}
		return batchItem{Kind: "generalized", Body: struct {
			Scenario   scenarioBody `json:"scenario"`
			YieldModel yieldModel   `json:"yield_model"`
		}{p.body(), ym}}, nil
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain data structs always encode
	}
	return b
}

func post(path string, body []byte) request {
	return request{method: "POST", path: path, body: body}
}

func get(path string) request { return request{method: "GET", path: path} }

// add appends reqs to the pool as one kind of the mix.
func (p *pool) add(name string, reqs ...request) {
	k := poolKind{name: name}
	for _, r := range reqs {
		r.kind = len(p.kinds)
		k.idx = append(k.idx, len(p.reqs))
		p.reqs = append(p.reqs, r)
	}
	p.kinds = append(p.kinds, k)
}

// lightPool is serve-light's request set, five kinds: small cost,
// designcost and generalized evaluations, 2–8-item batches and the
// memoized Figures 1–3.
func lightPool(seed int64) *pool {
	r := rand.New(rand.NewSource(seed))
	p := &pool{}
	const perKind = 128
	for _, kind := range []string{"cost", "designcost", "generalized"} {
		var reqs []request
		for len(reqs) < perKind {
			item, _ := genItem(r)
			if item.Kind != kind {
				continue
			}
			reqs = append(reqs, post("/v1/"+kind, mustJSON(item.Body)))
		}
		p.add(kind, reqs...)
	}
	var batches []request
	for _, n := range spread(r, perKind, 2, 8) {
		batches = append(batches, genBatch(r, n))
	}
	p.add("batch", batches...)
	p.add("figures1-3", get("/v1/figures/1"), get("/v1/figures/2"), get("/v1/figures/3"))
	return p
}

func genBatch(r *rand.Rand, n int) request {
	items := make([]batchItem, n)
	var scs []core.Scenario
	for i := range items {
		var sc *core.Scenario
		items[i], sc = genItem(r)
		if sc != nil {
			scs = append(scs, *sc)
		}
	}
	req := post("/v1/batch", mustJSON(map[string]any{"items": items}))
	req.scenarios = scs
	return req
}

// genSweep draws a sweep of one scenario over s_d, the wafer count or
// the yield.
func genSweep(r *rand.Rand, points int, ndjson bool) request {
	sp := genScenario(r)
	var variable string
	var lo, hi float64
	switch r.Intn(3) {
	case 0:
		variable, lo, hi = "sd", 110+float64(r.Intn(100)), 1000+float64(r.Intn(3000))
	case 1:
		variable, lo, hi = "wafers", 10+float64(r.Intn(990)), 1e4+float64(r.Intn(990000))
	default:
		variable, lo, hi = "yield", round3(0.05+0.3*r.Float64()), round3(0.5+0.5*r.Float64())
	}
	body := mustJSON(struct {
		Scenario scenarioBody `json:"scenario"`
		Variable string       `json:"variable"`
		Lo       float64      `json:"lo"`
		Hi       float64      `json:"hi"`
		Points   int          `json:"points"`
	}{sp.body(), variable, lo, hi, points})
	req := post("/v1/sweep", body)
	req.ndjson = ndjson
	return req
}

// spread returns n sizes covering [lo, hi] evenly in a seeded order:
// every seed draws different requests, but the same total work, so the
// seed does not move the load.
func spread(r *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	for i, j := range r.Perm(n) {
		out[i] = lo + int(math.Round(float64(j)*float64(hi-lo)/float64(n-1)))
	}
	return out
}

// warmup is the fixed request set every fleet boot sends through the
// router before it counts as set up: one request per route, the same for
// every seed, so set-up time does not depend on the workload's draws.
func warmup() []request {
	r := rand.New(rand.NewSource(0))
	var reqs []request
	for _, kind := range []string{"cost", "designcost", "generalized"} {
		for {
			item, _ := genItem(r)
			if item.Kind == kind {
				reqs = append(reqs, post("/v1/"+kind, mustJSON(item.Body)))
				break
			}
		}
	}
	reqs = append(reqs, genBatch(r, 8), genSweep(r, 64, false), genSweep(r, 64, true),
		get("/v1/figures/1"), get("/v1/figures/2"), get("/v1/figures/3"),
		get("/v1/figures/4"))
	return reqs
}
