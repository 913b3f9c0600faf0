package metrics

import (
	"encoding/json"
	"io"
)

// JSON export. The schema is deterministic end to end: series are keyed
// by instrument name in a map (encoding/json sorts map keys), points are
// in sampling order, and every timestamp is virtual nanoseconds —
// identical runs marshal to identical bytes.

type jsonPoint struct {
	T int64 `json:"t_ns"`
	V int64 `json:"v"`
}

type jsonHistPoint struct {
	T   int64 `json:"t_ns"`
	N   int64 `json:"n"`
	P50 int64 `json:"p50"`
	P95 int64 `json:"p95"`
	P99 int64 `json:"p99"`
	Max int64 `json:"max"`
}

type jsonSeries struct {
	Kind   string          `json:"kind"`
	Points []jsonPoint     `json:"points,omitempty"`
	Hist   []jsonHistPoint `json:"hist,omitempty"`
}

type jsonExport struct {
	TickNs  int64                 `json:"tick_ns,omitempty"`
	Samples int                   `json:"samples"`
	Series  map[string]jsonSeries `json:"series"`
}

// WriteJSON marshals the registry's sampled series.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	exp := jsonExport{
		TickNs:  int64(r.tick),
		Samples: r.samples,
		Series:  make(map[string]jsonSeries, len(r.order)),
	}
	for _, in := range r.order {
		s := jsonSeries{Kind: in.kind.String()}
		if in.kind == KindHist {
			s.Hist = make([]jsonHistPoint, len(in.hseries))
			for i, p := range in.hseries {
				s.Hist[i] = jsonHistPoint{T: int64(p.At), N: p.N, P50: p.P50, P95: p.P95, P99: p.P99, Max: p.Max}
			}
		} else {
			s.Points = make([]jsonPoint, len(in.series))
			for i, p := range in.series {
				s.Points[i] = jsonPoint{T: int64(p.At), V: p.V}
			}
		}
		exp.Series[in.name] = s
	}
	buf, err := json.MarshalIndent(&exp, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}
