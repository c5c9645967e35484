package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"involution/internal/attack"
	"involution/internal/server/api"
)

// Kernel workload shape: a chain of INV gates joined by η-involution exp
// channels with the uniform adversary, driven by a long pulse train whose
// widths straddle the channels' cancellation bound, so the event queue
// sees steady non-FIFO cancellation.
const (
	kernelStages  = 8
	kernelPulses  = 2000
	kernelMinW    = 0.5 // pulse widths are drawn from [kernelMinW, kernelMaxW)
	kernelMaxW    = 2.0
	kernelMinGap  = 0.5 // and the gaps between pulses from [kernelMinGap, kernelMaxGap)
	kernelMaxGap  = 2.5
	kernelChannel = "exp tau=1 tp=0.5 vth=0.6 eta+=0.04 eta-=0.03 adversary=uniform"
)

// kernelRequest builds the seeded kernel job.
func kernelRequest(seed int64) api.Request {
	rng := rand.New(rand.NewSource(seed))
	var nl strings.Builder
	nl.WriteString("circuit kchain\ninput i\noutput o\n")
	for k := 1; k <= kernelStages; k++ {
		fmt.Fprintf(&nl, "gate g%d NOT init=%d\n", k, k%2)
	}
	prev := "i"
	for k := 1; k <= kernelStages; k++ {
		fmt.Fprintf(&nl, "channel %s g%d 0 %s seed=%d\n", prev, k, kernelChannel, rng.Int63())
		prev = fmt.Sprintf("g%d", k)
	}
	fmt.Fprintf(&nl, "channel %s o 0 zero\n", prev)

	var stim strings.Builder
	stim.WriteString("0")
	t := 1.0
	for p := 0; p < kernelPulses; p++ {
		w := kernelMinW + (kernelMaxW-kernelMinW)*rng.Float64()
		fmt.Fprintf(&stim, " r@%.4f f@%.4f", t, t+w)
		t += w + kernelMinGap + (kernelMaxGap-kernelMinGap)*rng.Float64()
	}
	return api.Request{
		Netlist: nl.String(),
		Inputs:  map[string]string{"i": stim.String()},
		Horizon: t + 50,
	}
}

// runKernel drives in-process netlist requests in a closed loop with one
// client. Every job must produce the same outputs, which must match the
// in-process reference evaluator attack.Local.
func runKernel(cfg config) (*result, error) {
	r := newResult(cfg)
	ctx := context.Background()
	var req api.Request
	for i := 0; i < setupProbes; i++ {
		t0 := time.Now()
		req = kernelRequest(cfg.seed)
		_, outs, err := runDirect(ctx, req, nil, nil)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(t0))
		r.setDigest(outputDigest(outs))
	}

	rec, err := attack.NewLocal().RunOne(ctx, req)
	if err != nil {
		return nil, err
	}
	var ref api.ResultPayload
	if err := json.Unmarshal(rec.Result, &ref); err != nil {
		return nil, err
	}
	r.check(outputDigest(ref.Outputs) == r.digest, "kernel outputs differ from attack.Local's")

	err = windows(r, nil, func() error {
		w := r.window()
		var sims *simAcc
		if r.tr.enabled() {
			sims = &r.sims
		}
		w.resume()
		for !w.full() {
			jctx, end := r.tr.startJob(ctx)
			t0 := time.Now()
			res, outs, err := runDirect(jctx, req, r.tr, sims)
			lat := time.Since(t0)
			end()
			w.pause()
			var events int64
			if err == nil {
				events = int64(res.Events)
				if outputDigest(outs) != r.digest {
					err = errWrongOutput
				}
			}
			if err != nil {
				r.problems = append(r.problems, err.Error())
			}
			w.observe(lat, events, err)
			w.resume()
		}
		w.pause()
		return nil
	})
	r.note("kernel job: %d INV stages, %d pulses, %d netlist bytes", kernelStages, kernelPulses, len(req.Netlist))
	return r, err
}
