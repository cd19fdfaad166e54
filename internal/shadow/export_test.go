package shadow

import "positlab/internal/arith"

// WrapPerOp is Wrap with every trailing update measured op by op
// against the reference, zero scales included. It is the oracle of the
// bulk recording of zero-scale rows: both must yield the same Snapshot.
func WrapPerOp(f arith.Format, cfg Config) (arith.Format, *Recorder) {
	rec := newRecorder(f, cfg)
	return perOpShadowed{shadowed{Format: f, bk: arith.BulkOf(f), rec: rec}}, rec
}

type perOpShadowed struct{ shadowed }

func (s perOpShadowed) TrailingUpdateKernel(nalpha arith.Num, x, w []arith.Num) {
	s.trailingPerOp(nalpha, x, w)
}
