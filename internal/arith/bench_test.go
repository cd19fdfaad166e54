package arith_test

import (
	"testing"

	"positlab/internal/arith"
	"positlab/internal/minifloat"
	"positlab/internal/posit"
)

// Fast vs slow implementations on the same operand stream: the speedup
// that justifies the value-domain formats (README "Architecture").
func benchFormat(b *testing.B, f arith.Format) {
	vals := make([]arith.Num, 256)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range vals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := float64(int64(x%2000)-1000) / 97
		vals[i] = f.FromFloat64(v)
	}
	var sink arith.Num
	b.Run("add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = f.Add(vals[i&255], vals[(i+7)&255])
		}
	})
	b.Run("mul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = f.Mul(vals[i&255], vals[(i+7)&255])
		}
	})
	b.Run("div", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = f.Div(vals[i&255], vals[(i+7)&255])
		}
	})
	sinkNum = sink
}

var sinkNum arith.Num

func BenchmarkFastPosit32(b *testing.B) { benchFormat(b, arith.Posit32e2) }
func BenchmarkSlowPosit32(b *testing.B) { benchFormat(b, arith.Posit(posit.Posit32e2)) }
func BenchmarkFastPosit16(b *testing.B) { benchFormat(b, arith.Posit16e2) }
func BenchmarkFastPosit8(b *testing.B)  { benchFormat(b, arith.MustByName("posit8es1")) }
func BenchmarkSlowPosit16(b *testing.B) { benchFormat(b, arith.Posit(posit.Posit16e2)) }
func BenchmarkFastFloat16(b *testing.B) { benchFormat(b, arith.Float16) }
func BenchmarkSlowFloat16(b *testing.B) {
	benchFormat(b, arith.Mini(minifloat.Float16, "Float16"))
}
func BenchmarkNativeFloat64(b *testing.B) { benchFormat(b, arith.Float64) }
func BenchmarkNativeFloat32(b *testing.B) { benchFormat(b, arith.Float32) }

// Inline-table build cost: what the first use of a fast format pays,
// once per process. The reported table-bytes metric is the resident
// footprint per format.
var sinkTables *arith.Tables

func benchTableBuild(b *testing.B, f arith.Format) {
	for i := 0; i < b.N; i++ {
		sinkTables = arith.BuildTablesForTest(f)
	}
	b.ReportMetric(float64(sinkTables.MemBytes()), "table-bytes")
}

func BenchmarkTableBuildPosit8e1(b *testing.B)  { benchTableBuild(b, arith.MustByName("posit8es1")) }
func BenchmarkTableBuildPosit16e2(b *testing.B) { benchTableBuild(b, arith.Posit16e2) }
func BenchmarkTableBuildFloat16(b *testing.B)   { benchTableBuild(b, arith.Float16) }
