package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Directive syntax (all comments, so the contracts live beside the code they
// govern):
//
//	//genielint:deterministic
//	    Package directive (any file, conventionally above the package
//	    clause): the package promises bit-reproducible output; the
//	    determinism pass enforces it.
//
//	//genielint:ctx-strict
//	    Package directive: the package is a request path; every function
//	    must thread its incoming context. context.Background()/TODO() are
//	    only legal in functions annotated ctx-root.
//
//	//genielint:ctx-root <reason>
//	    Function directive: this function legitimately originates a context
//	    (background prober, interface adapter with no ctx in its contract).
//	    The reason is mandatory.
//
//	//genielint:pooled
//	    Type directive: values of this type are shared through pools;
//	    callees receiving them (directly or inside slices/fields) must
//	    Clone before mutating.
//
//	//genielint:arena-scoped
//	    Type directive: this struct's lifetime is bounded by one graph
//	    lease, so storing arena tensors into its fields is part of the
//	    design rather than an escape.
//
//	//genielint:arena-source
//	    Type directive: method calls on this type hand out arena-backed
//	    values (the arena itself, and graphs drawing from one). Results of
//	    its methods carry arena lifetime; the type is implicitly
//	    arena-scoped.
//
//	//genielint:returns-arena
//	    Function directive: the function hands out arena-backed tensors;
//	    its results carry arena lifetime at call sites, and arena values
//	    may flow out through its returns.
//
//	//genielint:pool
//	    Type directive: a Get/Put recycling container (like sync.Pool,
//	    which is recognized without annotation). Get results must be Put
//	    back — or handed off by return/store — and never used after Put.
//
//	//genielint:allow <pass> <reason>
//	    Line directive (on the flagged line or the line above): suppress
//	    one pass's diagnostics here. The reason is mandatory; an allow
//	    without one is itself a diagnostic.
//
//	// guarded by <mu>
//	    Field annotation (trailing or doc comment on a struct field): the
//	    field may only be accessed while <mu> — a sibling mutex field — is
//	    held.
const directivePrefix = "//genielint:"

type allowKey struct {
	file string
	line int
	pass string
}

type malformedDirective struct {
	pos token.Pos
	msg string
}

// Directives is a package's parsed genielint annotations.
type Directives struct {
	pkg *Package

	// Deterministic / CtxStrict are package-level promises.
	Deterministic bool
	CtxStrict     bool

	// ctxRoot maps *types.Func objects annotated ctx-root.
	ctxRoot map[types.Object]bool
	// returnsArena maps *types.Func objects annotated returns-arena.
	returnsArena map[types.Object]bool
	// pooled / arenaScoped / arenaSource / poolType map *types.TypeName
	// objects so passes can test annotations across packages via the type's
	// object identity.
	pooled      map[types.Object]bool
	arenaScoped map[types.Object]bool
	arenaSource map[types.Object]bool
	poolType    map[types.Object]bool
	// guarded maps field objects to the declared mutex field name.
	guarded map[types.Object]string

	allows    map[allowKey]bool
	malformed []malformedDirective
}

// parseDirectives walks a package's comments and declarations once, building
// the annotation tables every pass consults.
func parseDirectives(pkg *Package) *Directives {
	d := &Directives{
		pkg:          pkg,
		ctxRoot:      map[types.Object]bool{},
		returnsArena: map[types.Object]bool{},
		pooled:       map[types.Object]bool{},
		arenaScoped:  map[types.Object]bool{},
		arenaSource:  map[types.Object]bool{},
		poolType:     map[types.Object]bool{},
		guarded:      map[types.Object]string{},
		allows:       map[allowKey]bool{},
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d.parseComment(c)
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				d.parseFuncDirectives(decl)
			case *ast.GenDecl:
				d.parseGenDecl(decl)
			}
		}
	}
	return d
}

// parseComment handles package-level flags and allow lines, which attach to
// positions rather than declarations.
func (d *Directives) parseComment(c *ast.Comment) {
	text, ok := strings.CutPrefix(c.Text, directivePrefix)
	if !ok {
		return
	}
	fields := strings.Fields(text)
	if len(fields) == 0 {
		d.malformed = append(d.malformed, malformedDirective{c.Pos(), "empty genielint directive"})
		return
	}
	switch fields[0] {
	case "deterministic":
		d.Deterministic = true
	case "ctx-strict":
		d.CtxStrict = true
	case "allow":
		if len(fields) < 3 {
			d.malformed = append(d.malformed, malformedDirective{
				c.Pos(), "allow directive needs a pass name and a reason: //genielint:allow <pass> <why>"})
			return
		}
		pos := d.pkg.Fset.Position(c.Pos())
		d.allows[allowKey{pos.Filename, pos.Line, fields[1]}] = true
	case "ctx-root":
		if len(fields) < 2 {
			d.malformed = append(d.malformed, malformedDirective{
				c.Pos(), "ctx-root directive needs a reason: //genielint:ctx-root <why>"})
		}
	case "pooled", "arena-scoped", "arena-source", "pool", "returns-arena":
		// Attached to declarations in parseFuncDirectives/parseGenDecl.
	default:
		d.malformed = append(d.malformed, malformedDirective{
			c.Pos(), "unknown genielint directive " + fields[0]})
	}
}

func commentHas(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if text, ok := strings.CutPrefix(c.Text, directivePrefix); ok {
			fields := strings.Fields(text)
			if len(fields) > 0 && fields[0] == name {
				return true
			}
		}
	}
	return false
}

func (d *Directives) parseFuncDirectives(fd *ast.FuncDecl) {
	obj := d.pkg.Info.Defs[fd.Name]
	if obj == nil {
		return
	}
	if commentHas(fd.Doc, "ctx-root") {
		d.ctxRoot[obj] = true
	}
	if commentHas(fd.Doc, "returns-arena") {
		d.returnsArena[obj] = true
	}
}

func (d *Directives) parseGenDecl(gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		obj := d.pkg.Info.Defs[ts.Name]
		if obj == nil {
			continue
		}
		// A directive on the type spec or (for single-spec decls) the decl.
		if commentHas(ts.Doc, "pooled") || commentHas(gd.Doc, "pooled") {
			d.pooled[obj] = true
		}
		if commentHas(ts.Doc, "arena-scoped") || commentHas(gd.Doc, "arena-scoped") {
			d.arenaScoped[obj] = true
		}
		if commentHas(ts.Doc, "arena-source") || commentHas(gd.Doc, "arena-source") {
			d.arenaSource[obj] = true
			d.arenaScoped[obj] = true // a source owns its values' lifetime
		}
		if commentHas(ts.Doc, "pool") || commentHas(gd.Doc, "pool") {
			d.poolType[obj] = true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, field := range st.Fields.List {
			mu := guardedBy(field.Doc)
			if mu == "" {
				mu = guardedBy(field.Comment)
			}
			if mu == "" {
				continue
			}
			for _, name := range field.Names {
				if fobj := d.pkg.Info.Defs[name]; fobj != nil {
					d.guarded[fobj] = mu
				}
			}
		}
	}
}

// guardedBy extracts the mutex name from a `// guarded by <mu>` annotation
// anywhere in the comment group.
func guardedBy(cg *ast.CommentGroup) string {
	if cg == nil {
		return ""
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if rest, ok := strings.CutPrefix(text, "guarded by "); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				// The annotation may share the comment with prose:
				// `// guarded by mu; stat signal at the last (re)load`.
				return strings.TrimRight(fields[0], ".,;:")
			}
		}
	}
	return ""
}

// allowed reports whether pass diagnostics at file:line are suppressed by an
// allow directive on that line or the one above it.
func (d *Directives) allowed(pass, file string, line int) bool {
	return d.allows[allowKey{file, line, pass}] || d.allows[allowKey{file, line - 1, pass}]
}
