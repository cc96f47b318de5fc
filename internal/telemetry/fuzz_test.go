package telemetry

import (
	"bufio"
	"bytes"
	"math"
	"testing"
)

// FuzzParsePrometheus: any text either fails to parse or yields samples
// that, exposed again the way WritePrometheus writes them, parse back to
// the same samples.
func FuzzParsePrometheus(f *testing.F) {
	f.Add("# HELP dais_requests_total Requests.\n# TYPE dais_requests_total counter\ndais_requests_total{op=\"GetTuples\",side=\"server\"} 12\n")
	f.Add("dais_request_seconds_bucket{le=\"+Inf\",op=\"x\"} 3\ndais_request_seconds_sum 0.25\nup 1\n")
	f.Add("g{v=\"a,b\\\"}c\"} -Inf\nh NaN\n")
	f.Add("{a=\"b\"} 1\n")
	f.Add("m{k=\"\\x7d\"} 1\n")
	f.Fuzz(func(t *testing.T, text string) {
		samples, err := ParsePrometheus(text)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		for _, s := range samples {
			writeSample(w, s.Name, s.Labels, s.Value)
		}
		w.Flush()
		again, err := ParsePrometheus(buf.String())
		if err != nil {
			t.Fatalf("re-exposed samples do not parse: %v\ninput: %q\nexposed: %q", err, text, buf.String())
		}
		if len(again) != len(samples) {
			t.Fatalf("%d samples, %d after re-exposure\nexposed: %q", len(samples), len(again), buf.String())
		}
		for i, s := range samples {
			a := again[i]
			same := s.Name == a.Name && len(s.Labels) == len(a.Labels) &&
				(s.Value == a.Value || math.IsNaN(s.Value) && math.IsNaN(a.Value))
			for k, v := range s.Labels {
				same = same && a.Labels[k] == v
			}
			if !same {
				t.Fatalf("sample %d: %+v, after re-exposure %+v\nexposed: %q", i, s, a, buf.String())
			}
		}
	})
}
