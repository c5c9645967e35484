package chaos

import (
	"bytes"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"time"

	"involution/internal/splitmix"
)

// Middleware wraps an http.Handler with the schedule's faults — the
// server-side half of chaos testing, behind simd's -chaos flag. The same
// rule semantics apply as on the Transport; refusing faults (reset, stall,
// partition) abort the connection without a response, status faults refuse
// cleanly, and body faults mutate the captured response before it is sent.
// The wrapped handler never observes the chaos (requests reach it intact).
func Middleware(sched *Schedule, next http.Handler) http.Handler {
	t := NewTransport(sched, nil) // reuse the decision/occurrence state
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key, restore := serverIdentity(r)
		occ := t.next(key)
		elapsed := t.now().Sub(t.epoch)
		restore()

		var delay time.Duration
		var bodyFaults []Rule
		for i, rule := range sched.Rules {
			if !rule.matches(r.Host, r.URL.Path, elapsed) || !t.fired(i, key, occ) {
				continue
			}
			switch rule.Fault {
			case FaultLatency:
				delay += rule.latency()
			case FaultTruncate, FaultCorrupt:
				rule.ruleIdx = i
				bodyFaults = append(bodyFaults, rule)
			case FaultStall:
				t.count(FaultStall)
				sleep(r.Context(), delay+rule.latency())
				panic(http.ErrAbortHandler)
			case FaultReset, FaultPartition:
				t.count(rule.Fault)
				panic(http.ErrAbortHandler)
			case FaultStatus:
				t.count(FaultStatus)
				sleep(r.Context(), delay)
				w.Header().Set("Content-Type", "application/json")
				if rule.RetryAfter > 0 {
					w.Header().Set("Retry-After", strconv.Itoa(rule.RetryAfter))
				}
				w.WriteHeader(rule.status())
				io.WriteString(w, `{"error":"chaos: injected `+strconv.Itoa(rule.status())+`"}`)
				return
			}
		}
		if delay > 0 {
			t.count(FaultLatency)
			sleep(r.Context(), delay)
		}
		if len(bodyFaults) == 0 {
			next.ServeHTTP(w, r)
			return
		}

		rec := &capture{header: make(http.Header), code: http.StatusOK}
		next.ServeHTTP(rec, r)
		body := rec.buf.Bytes()
		truncated := false
		full := len(body)
		for _, rule := range bodyFaults {
			state := sched.mix(rule.ruleIdx, key, occ)
			switch rule.Fault {
			case FaultCorrupt:
				t.count(FaultCorrupt)
				body = corrupt(body, splitmix.Mix(state+splitmix.Gamma), rule.flips())
			case FaultTruncate:
				t.count(FaultTruncate)
				if len(body) > 1 {
					keep := 1 + int(state%uint64(len(body)*8/10))
					body = body[:min(keep+len(body)/10, len(body)-1)]
				}
				truncated = true
			}
		}
		h := w.Header()
		for k, vs := range rec.header {
			h[k] = vs
		}
		if truncated {
			// Advertise the full length, send a prefix, kill the connection:
			// the client observes a stream cut mid-body.
			h.Set("Content-Length", strconv.Itoa(full))
			w.WriteHeader(rec.code)
			w.Write(body)
			if fl, ok := w.(http.Flusher); ok {
				fl.Flush()
			}
			panic(http.ErrAbortHandler)
		}
		h.Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(rec.code)
		w.Write(body)
	})
}

// serverIdentity derives the same request identity the Transport uses,
// re-buffering the body so the wrapped handler can read it.
func serverIdentity(r *http.Request) (string, func()) {
	h := fnv.New64a()
	restore := func() {}
	if r.Body != nil {
		data, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
		r.Body.Close()
		if err == nil {
			h.Write(data)
			restore = func() { r.Body = io.NopCloser(bytes.NewReader(data)) }
		}
	}
	return r.Method + "|" + r.Host + "|" + r.URL.Path + "|" + strconv.FormatUint(h.Sum64(), 16), restore
}

// capture buffers a handler's response for post-hoc mutation.
type capture struct {
	header http.Header
	code   int
	buf    bytes.Buffer
}

func (c *capture) Header() http.Header { return c.header }

func (c *capture) WriteHeader(code int) { c.code = code }

func (c *capture) Write(p []byte) (int, error) { return c.buf.Write(p) }
