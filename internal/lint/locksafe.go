package lint

import (
	"go/ast"
	"go/types"
	"maps"
)

// LockSafeAnalyzer flags channel operations performed while a
// sync.Mutex/RWMutex is held. The sharded caches and the campaign engine
// mix per-shard mutexes with bounded channels for backpressure; a channel
// send or receive under a lock turns that backpressure into a potential
// deadlock (the goroutine that would drain the channel may be waiting for
// the same lock) and stretches critical sections from nanoseconds to
// unbounded waits. Hand the value off outside the critical section
// instead.
//
// The check is lexical and per-function: it tracks Lock/RLock …
// Unlock/RUnlock pairs (including defer'd unlocks) within one function
// body and flags sends, receives, selects, and range-over-channel in the
// held region. Function literals are not entered: a goroutine launched
// under the lock runs on its own stack.
var LockSafeAnalyzer = &Analyzer{
	Name: "locksafe",
	Doc:  "flag channel send/receive/select while holding a sync.Mutex or RWMutex; move blocking operations outside the critical section",
	Run:  runLockSafe,
}

func runLockSafe(pass *Pass) error {
	w := &lockWalk{
		info:      pass.Info,
		key:       func(x ast.Expr) (string, bool) { return types.ExprString(x), true },
		underLock: func(n ast.Node, held map[string]bool) { reportUnderLock(pass, n, held) },
	}
	for _, f := range pass.Files {
		w.file(f)
	}
	return nil
}

// lockWalk is the lexical held-set walk that locksafe and lockorder
// share. Within one function body it tracks Lock/RLock … Unlock/RUnlock
// on sync.Mutex and RWMutex values: a deferred call keeps the held set as
// it is to function end, and sibling blocks do not leak lock state to
// each other. Function literals are not entered here: a goroutine or
// callback body runs on its own stack and is walked as its own function.
type lockWalk struct {
	info *types.Info
	// key names the lock x of x.Lock(); false leaves it untracked.
	key func(x ast.Expr) (string, bool)
	// acquire, if set, sees each tracked Lock or RLock call before its
	// key joins held.
	acquire func(key string, call ast.Expr, held map[string]bool)
	// underLock, if set, sees what runs while a lock is held that the
	// walk does not enter itself: every other statement, an if's Init
	// and Cond, a for's Init, Cond and Post, and a range statement,
	// whose Body is walked after.
	underLock func(n ast.Node, held map[string]bool)
}

// file walks every function body in f, each with nothing held.
func (w *lockWalk) file(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				w.stmts(fn.Body.List, map[string]bool{})
			}
		case *ast.FuncLit:
			w.stmts(fn.Body.List, map[string]bool{})
		}
		return true
	})
}

// stmts walks one statement list on a copy of held.
func (w *lockWalk) stmts(list []ast.Stmt, held map[string]bool) {
	local := make(map[string]bool, len(held))
	maps.Copy(local, held)
	for _, stmt := range list {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if w.lockOp(s.X, local) {
				continue
			}
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the lock held to function end.
			if _, _, ok := mutexOp(w.info, s.Call); ok {
				continue
			}
		case *ast.BlockStmt:
			w.stmts(s.List, local)
			continue
		case *ast.IfStmt:
			w.branches(s, local)
			continue
		case *ast.ForStmt:
			w.loop(s, local)
			continue
		case *ast.RangeStmt:
			w.visit(s, local)
			w.stmts(s.Body.List, local)
			continue
		}
		w.visit(stmt, local)
	}
}

// loop walks a for statement: its Init, Cond and Post run under the
// locks held where the loop starts, as its Body does.
func (w *lockWalk) loop(s *ast.ForStmt, held map[string]bool) {
	for _, n := range []ast.Node{s.Init, s.Cond, s.Post} {
		if n != nil {
			w.visit(n, held)
		}
	}
	w.stmts(s.Body.List, held)
}

func (w *lockWalk) branches(s *ast.IfStmt, held map[string]bool) {
	if s.Init != nil {
		w.visit(s.Init, held)
	}
	w.visit(s.Cond, held)
	w.stmts(s.Body.List, held)
	switch e := s.Else.(type) {
	case *ast.BlockStmt:
		w.stmts(e.List, held)
	case *ast.IfStmt:
		w.branches(e, held)
	}
}

// visit hands n to underLock while a lock is held.
func (w *lockWalk) visit(n ast.Node, held map[string]bool) {
	if w.underLock != nil && len(held) > 0 {
		w.underLock(n, held)
	}
}

// lockOp applies expr to held if it is a mutex operation, and reports
// whether it was one.
func (w *lockWalk) lockOp(expr ast.Expr, held map[string]bool) bool {
	recv, op, ok := mutexOp(w.info, expr)
	if !ok {
		return false
	}
	key, tracked := w.key(recv)
	switch {
	case !tracked:
	case op == "Lock" || op == "RLock":
		if w.acquire != nil {
			w.acquire(key, expr, held)
		}
		held[key] = true
	default:
		delete(held, key)
	}
	return true
}

// mutexOp recognizes x.Lock / x.RLock / x.Unlock / x.RUnlock calls where
// x is a sync.Mutex or sync.RWMutex (possibly behind a pointer), and
// returns x and the operation.
func mutexOp(info *types.Info, expr ast.Expr) (recv ast.Expr, op string, ok bool) {
	call, isCall := ast.Unparen(expr).(*ast.CallExpr)
	if !isCall {
		return nil, "", false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return nil, "", false
	}
	t := info.TypeOf(sel.X)
	if t == nil || !isSyncMutex(t) {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

func isSyncMutex(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// reportUnderLock flags channel operations in n, run while held is
// held, without descending into function literals. A range statement is
// its header alone: its body is walked apart.
func reportUnderLock(pass *Pass, n ast.Node, held map[string]bool) {
	name := anyKey(held)
	if rs, ok := n.(*ast.RangeStmt); ok {
		if isChan(pass, rs.X) {
			pass.Reportf(rs.Pos(), "range over a channel while holding %s; the loop blocks until senders close it — drain outside the critical section", name)
		}
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch op := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			pass.Reportf(op.Pos(), "channel send while holding %s; a blocked receiver waiting on the same lock deadlocks — hand off outside the critical section", name)
		case *ast.UnaryExpr:
			if op.Op.String() == "<-" {
				pass.Reportf(op.Pos(), "channel receive while holding %s; the sender may be waiting on the same lock — receive outside the critical section", name)
			}
		case *ast.SelectStmt:
			pass.Reportf(op.Pos(), "select while holding %s; channel operations under a mutex risk deadlock — select outside the critical section", name)
			return false
		case *ast.RangeStmt:
			if isChan(pass, op.X) {
				pass.Reportf(op.Pos(), "range over a channel while holding %s; the loop blocks until senders close it — drain outside the critical section", name)
			}
		}
		return true
	})
}

// isChan reports whether x has a channel type.
func isChan(pass *Pass, x ast.Expr) bool {
	if t := pass.Info.TypeOf(x); t != nil {
		_, ok := t.Underlying().(*types.Chan)
		return ok
	}
	return false
}

func anyKey(m map[string]bool) string {
	best := ""
	for k := range m {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}
