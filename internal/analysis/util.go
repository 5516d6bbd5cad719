package analysis

import (
	"go/ast"
	"go/types"
)

// calleeObj resolves a call expression's callee to its declared object
// (function, method, or builtin), or nil for dynamic calls through function
// values.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			return sel.Obj()
		}
		// Qualified identifier (pkg.Func).
		return info.Uses[fn.Sel]
	}
	return nil
}

// namedOf unwraps pointers and aliases down to the *types.TypeName of a named
// type, or nil for unnamed types.
func namedOf(t types.Type) *types.TypeName {
	for t != nil {
		t = types.Unalias(t)
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt.Obj()
		default:
			return nil
		}
	}
	return nil
}

// recvNamed returns the named type of a method's receiver, or nil for
// package-level functions.
func recvNamed(obj types.Object) *types.TypeName {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return namedOf(sig.Recv().Type())
}

// pkgPathOf returns the declaring package path of an object ("" for builtins
// and universe-scope objects).
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// rootIdent unwraps selectors, index expressions, derefs, calls-through, and
// parens down to the base identifier of an lvalue/chain (x in x.f[i].g), or
// nil when the chain does not bottom out in an identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch ee := ast.Unparen(e).(type) {
		case *ast.Ident:
			return ee
		case *ast.SelectorExpr:
			e = ee.X
		case *ast.IndexExpr:
			e = ee.X
		case *ast.StarExpr:
			e = ee.X
		case *ast.UnaryExpr:
			e = ee.X
		default:
			return nil
		}
	}
}

// isMutexType reports whether a named type is sync.Mutex or sync.RWMutex.
func isMutexType(tn *types.TypeName) bool {
	if tn == nil {
		return false
	}
	return pkgPathOf(tn) == "sync" && (tn.Name() == "Mutex" || tn.Name() == "RWMutex")
}
