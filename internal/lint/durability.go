package lint

import (
	"go/ast"
	"go/token"
)

// durabilityScope: the packages that own crash-durable state — the job
// journal/snapshot, the runner's result cache and runs.json, the
// filesystem seam itself, and the shadow artifact writer — where the
// write-fsync-rename ordering is the whole correctness story. arith
// writes no files; it stays in scope so that a file writer added
// there is checked from its first line.
var durabilityScope = []string{"jobs", "runner", "faultfs", "arith", "shadow"}

// durabilityRule enforces the atomic-replace protocol on durable
// files: a file that is renamed into its final place must have been
// fsynced first, otherwise the rename can land while the data is still
// in the page cache — after a crash the "atomically replaced" file is
// empty or torn, which is precisely the torn-artifact class the job
// journal exists to prevent.
//
// The check is interprocedural through the fact engine: a call to any
// helper that transitively reaches (*os.File).Sync counts as sync
// evidence, so `syncAndClose(f); os.Rename(tmp, final)` is clean even
// when the Sync lives two packages away. A second facet uses the
// writer-drop summaries: handing a durable writer to a helper that
// silently discards its write errors is the same bug entering through
// the side door, and is flagged at the call site (in all
// artifact-owning packages, the errcheck scope).
type durabilityRule struct{}

func (durabilityRule) Name() string { return "durability" }
func (durabilityRule) Doc() string {
	return "require fsync evidence before os.Rename in journal/cache code; forbid handing writers to error-dropping helpers; forbid blank-discarded Remove errors in cleanup paths"
}

func (durabilityRule) Check(p *Pass) {
	if p.Facts == nil {
		return
	}
	info := p.Pkg.Info
	if scoped(p.Pkg, durabilityScope...) {
		forEachFunc(p.Pkg, func(fd *ast.FuncDecl) {
			name := funcDisplayName(fd)
			var syncPositions, renamePositions []token.Pos
			walkSkipFuncLit(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(info, call)
				if fn == nil {
					return true
				}
				if isPkgFunc(fn, "os", "Rename") {
					renamePositions = append(renamePositions, call.Pos())
					return true
				}
				if p.Facts.ForCall(fn).Syncs {
					syncPositions = append(syncPositions, call.Pos())
				}
				return true
			})
			for _, rp := range renamePositions {
				synced := false
				for _, sp := range syncPositions {
					if sp < rp {
						synced = true
						break
					}
				}
				if !synced {
					p.Reportf(rp, "os.Rename in %s without a prior fsync: the rename can commit before the data reaches disk, leaving a torn file after a crash; call File.Sync (directly or via a syncing helper) before renaming", name)
				}
			}
		})
	}
	if scoped(p.Pkg, durabilityScope...) {
		checkBlankRemove(p)
	}
	if scoped(p.Pkg, errcheckScope...) {
		checkWriterHandoff(p)
	}
}

// checkBlankRemove flags `_ = X.Remove(...)` in durable packages. The
// errcheck rule accepts `_ =` as an acknowledged discard, but for
// Remove in a cleanup path the acknowledgment is still a bug: on a
// sick disk the temp files of failed atomic writes silently accrete
// until the volume fills, turning one transient fault into a permanent
// outage. Join the removal error into the returned error (the
// faultfs.WriteFileAtomic idiom) or count it.
func checkBlankRemove(p *Pass) {
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 || as.Tok != token.ASSIGN {
				return true
			}
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
					return true
				}
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Name() != "Remove" || !returnsErrorLast(info, call) {
				return true
			}
			p.Reportf(as.Pos(), "cleanup discards the %s error: failed removals of temp files accrete silently on a sick disk; join the error into the return value or count it", fn.FullName())
			return true
		})
	}
}

// checkWriterHandoff flags calls that pass a writer-typed value to a
// function whose summary says it silently drops that writer's output
// errors.
func checkWriterHandoff(p *Pass) {
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || !p.Facts.ForCall(fn).DropsWriterErr {
				return true
			}
			for _, arg := range call.Args {
				// Infallible sinks (strings.Builder, bytes.Buffer) make
				// the dropped error a non-event by contract.
				if t := info.TypeOf(arg); isWriterish(t) && !isInfallibleBuilder(t) {
					p.Reportf(call.Pos(), "%s silently discards write errors on the writer passed here; a failed write would look like a complete artifact — have the helper return the error", fn.FullName())
					break
				}
			}
			return true
		})
	}
}
