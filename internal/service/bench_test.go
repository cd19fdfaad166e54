package service

import (
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"positlab/internal/experiments"
	"positlab/internal/runner"
)

func benchPayload(batch int) string {
	var sb strings.Builder
	sb.WriteString(`{"from":"float64","to":"posit32es2","values":[`)
	for i := 0; i < batch; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%g", 1.0+float64(i)/7)
	}
	sb.WriteString(`]}`)
	return sb.String()
}

func benchServer(b *testing.B) *httptest.Server {
	b.Helper()
	s := New(Config{
		// Restrict the suite so the experiment warm-up is one matrix,
		// not nineteen; the warm path under measurement is identical.
		RunnerConfig: runner.Config{
			Options: experiments.Options{Matrices: []string{"bcsstk01"}}.Canonical(),
		},
	})
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	return ts
}

func benchConvert(b *testing.B, batch int) {
	ts := benchServer(b)
	payload := benchPayload(batch)
	client := ts.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/v1/convert", "application/json", strings.NewReader(payload))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != 200 {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

func BenchmarkServiceConvert1(b *testing.B)   { benchConvert(b, 1) }
func BenchmarkServiceConvert256(b *testing.B) { benchConvert(b, 256) }

func BenchmarkServiceExperimentWarm(b *testing.B) {
	ts := benchServer(b)
	client := ts.Client()
	warm, err := client.Get(ts.URL + "/v1/experiments/table2")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, warm.Body); err != nil {
		b.Fatal(err)
	}
	if err := warm.Body.Close(); err != nil {
		b.Fatal(err)
	}
	if warm.StatusCode != 200 {
		b.Fatalf("warm-up status %d", warm.StatusCode)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(ts.URL + "/v1/experiments/table2")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != 200 {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}
