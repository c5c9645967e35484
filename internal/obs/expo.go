package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE headers, cumulative `le` buckets,
// `_sum` and `_count` series for histograms plus estimated `_p50` / `_p95`
// / `_p99` convenience series (untyped; see Histogram.Quantile), labeled
// constant-1 series for info metrics (rendered as gauges, the build_info
// idiom). Metrics appear in sorted name order, so output is deterministic
// for a fixed registry state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, s := range r.Snapshot() {
		if s.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.Name, s.Help); err != nil {
				return err
			}
		}
		kind := s.Kind
		if kind == KindInfo {
			kind = KindGauge // Prometheus has no info type; gauge-1 is the idiom
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, kind); err != nil {
			return err
		}
		switch s.Kind {
		case KindCounter, KindGauge:
			if _, err := fmt.Fprintf(w, "%s %s\n", s.Name, promFloat(s.Value)); err != nil {
				return err
			}
		case KindInfo:
			var lb strings.Builder
			for i, l := range s.Labels {
				if i > 0 {
					lb.WriteByte(',')
				}
				fmt.Fprintf(&lb, "%s=%q", l.Key, l.Value)
			}
			if _, err := fmt.Fprintf(w, "%s{%s} 1\n", s.Name, lb.String()); err != nil {
				return err
			}
		case KindHistogram:
			for _, b := range s.Buckets {
				le := "+Inf"
				if !math.IsInf(b.Upper, 1) {
					le = promFloat(b.Upper)
				}
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", s.Name, le, b.Count); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", s.Name, promFloat(s.Value), s.Name, s.Count); err != nil {
				return err
			}
			if q := s.Quantiles; q != nil {
				if _, err := fmt.Fprintf(w, "%s_p50 %s\n%s_p95 %s\n%s_p99 %s\n",
					s.Name, promFloat(q.P50), s.Name, promFloat(q.P95), s.Name, promFloat(q.P99)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Handler returns an http.Handler serving the Prometheus text exposition —
// mount it at /metrics next to net/http/pprof.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
