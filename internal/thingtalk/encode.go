package thingtalk

import (
	"fmt"
	"strings"
)

// Token encoding. The canonical surface syntax of a ThingTalk program is a
// sequence of whitespace-separated tokens; the same sequence is the target
// vocabulary of the neural semantic parser, so Encode followed by Parse is
// the identity on canonical programs.
//
// EncodeOptions expose the serialization ablations of Table 3: type
// annotations can be dropped, and keyword parameters can be replaced by
// positional parameters.

// EncodeOptions control program-to-token serialization.
type EncodeOptions struct {
	// TypeAnnotations appends ":Type" to parameter tokens when the type is
	// known (param:caption:String). This is the canonical form.
	TypeAnnotations bool
	// Positional replaces keyword parameters with positional parameters:
	// each invocation serializes every declared input parameter in
	// signature order, using "_" for absent ones. Requires Schemas.
	Positional bool
	// Schemas provides signatures for Positional mode.
	Schemas SchemaSource
}

// CanonicalEncode is the default encoding used throughout the pipeline.
var CanonicalEncode = EncodeOptions{TypeAnnotations: true}

// Tokens renders the program with canonical options.
func (p *Program) Tokens() []string { return p.Encode(CanonicalEncode) }

// Encode renders the program as its NN token sequence.
func (p *Program) Encode(opt EncodeOptions) []string {
	var e encoder
	e.opt = opt
	e.program(p)
	return e.out
}

type encoder struct {
	opt EncodeOptions
	out []string
}

func (e *encoder) emit(toks ...string) { e.out = append(e.out, toks...) }

func (e *encoder) program(p *Program) {
	e.stream(p.Stream)
	e.emit("=>")
	if p.Query != nil {
		e.query(p.Query, false)
		e.emit("=>")
	}
	e.action(p.Action)
}

func (e *encoder) stream(s *Stream) {
	switch s.Kind {
	case StreamNow:
		e.emit("now")
	case StreamTimer:
		e.emit("timer", "base", "=")
		e.value(s.Base)
		e.emit("interval", "=")
		e.value(s.Interval)
	case StreamAtTimer:
		e.emit("attimer", "time", "=")
		e.value(s.Time)
	case StreamMonitor:
		e.emit("monitor", "(")
		e.query(s.Monitor, false)
		e.emit(")")
		if len(s.MonitorOn) > 0 {
			e.emit("on", "new")
			for _, p := range s.MonitorOn {
				e.emit("param:" + p)
			}
		}
	case StreamEdge:
		e.emit("edge", "(")
		e.stream(s.Inner)
		e.emit(")", "on")
		e.predicate(s.Predicate, false)
	}
}

// query emits q; atomic controls whether compound forms are parenthesized
// (right operands of joins and nested groupings must be atomic).
func (e *encoder) query(q *Query, atomic bool) {
	switch q.Kind {
	case QueryInvocation:
		e.invocation(q.Invocation)
	case QueryFilter:
		if atomic {
			e.emit("(")
		}
		e.query(q.Inner, q.Inner.Kind == QueryJoin)
		e.emit("filter")
		e.predicate(q.Predicate, false)
		if atomic {
			e.emit(")")
		}
	case QueryJoin:
		if atomic {
			e.emit("(")
		}
		e.query(q.Inner, q.Inner.Kind == QueryFilter)
		e.emit("join")
		e.query(q.Right, true)
		if len(q.JoinParams) > 0 {
			e.emit("on")
			for _, ip := range q.JoinParams {
				e.inputParam(ip)
			}
		}
		if atomic {
			e.emit(")")
		}
	case QueryAggregate:
		e.emit("agg", q.AggOp)
		if q.AggParam != "" {
			e.emit("param:" + q.AggParam)
		}
		e.emit("of", "(")
		e.query(q.Inner, false)
		e.emit(")")
	}
}

func (e *encoder) action(a *Action) {
	if a.Notify {
		e.emit("notify")
		return
	}
	e.invocation(a.Invocation)
}

func (e *encoder) invocation(inv *Invocation) {
	e.emit(inv.Selector())
	if e.opt.Positional && e.opt.Schemas != nil {
		if sch, ok := e.opt.Schemas.Schema(inv.Class, inv.Function); ok {
			e.positionalParams(inv, sch)
			return
		}
	}
	for _, ip := range inv.In {
		e.inputParam(ip)
	}
}

func (e *encoder) positionalParams(inv *Invocation, sch *FunctionSchema) {
	e.emit("(")
	first := true
	for _, ps := range sch.Params {
		if ps.Dir == DirOut {
			continue
		}
		if !first {
			e.emit(",")
		}
		first = false
		found := false
		for _, ip := range inv.In {
			if ip.Name == ps.Name {
				e.value(ip.Value)
				found = true
				break
			}
		}
		if !found {
			e.emit("_")
		}
	}
	e.emit(")")
}

func (e *encoder) inputParam(ip InputParam) {
	e.emit(e.paramToken(ip.Name, ip.Type), "=")
	e.value(ip.Value)
}

func (e *encoder) paramToken(name string, t Type) string {
	if e.opt.TypeAnnotations && t != nil {
		return "param:" + name + ":" + t.String()
	}
	return "param:" + name
}

func (e *encoder) predicate(p *Predicate, nested bool) {
	switch p.Kind {
	case PredTrue:
		e.emit("true")
	case PredFalse:
		e.emit("false")
	case PredNot:
		e.emit("not")
		e.predicateAtomic(p.Children[0])
	case PredAnd:
		if nested {
			e.emit("(")
		}
		for i, ch := range p.Children {
			if i > 0 {
				e.emit("and")
			}
			e.predicateChild(ch, PredAnd)
		}
		if nested {
			e.emit(")")
		}
	case PredOr:
		if nested {
			e.emit("(")
		}
		for i, ch := range p.Children {
			if i > 0 {
				e.emit("or")
			}
			e.predicateChild(ch, PredOr)
		}
		if nested {
			e.emit(")")
		}
	case PredAtom:
		e.emit(e.paramToken(p.Param, p.ParamType), p.Op)
		e.value(p.Value)
	case PredExternal:
		e.invocation(p.External)
		e.emit("{")
		e.predicate(p.InnerPred, false)
		e.emit("}")
	}
}

// predicateChild emits a child of an and/or node, parenthesizing when the
// child binds less tightly than the parent ('and' binds tighter than 'or',
// so an Or child of an And needs parentheses — the CNF canonical shape).
func (e *encoder) predicateChild(ch *Predicate, parent PredKind) {
	switch ch.Kind {
	case PredAnd:
		if parent == PredOr {
			// And inside Or binds tighter; no parens needed.
			e.predicate(ch, false)
		} else {
			e.predicate(ch, true)
		}
	case PredOr:
		// Or inside And needs parens.
		e.predicate(ch, parent == PredAnd)
	default:
		e.predicate(ch, false)
	}
}

func (e *encoder) predicateAtomic(p *Predicate) {
	switch p.Kind {
	case PredAtom, PredTrue, PredFalse, PredExternal:
		e.predicate(p, false)
	default:
		e.emit("(")
		e.predicate(p, false)
		e.emit(")")
	}
}

func (e *encoder) value(v Value) {
	e.emit(v.Tokens()...)
}

// Tokens renders a predicate alone (used for deduplication keys and
// diagnostics).
func (p *Predicate) Tokens() []string {
	var e encoder
	e.opt = CanonicalEncode
	e.predicate(p, false)
	return e.out
}

// SelectorParts splits an @class.function token.
func SelectorParts(sel string) (class, fn string, err error) {
	if !strings.HasPrefix(sel, "@") {
		return "", "", fmt.Errorf("thingtalk: invalid selector %q", sel)
	}
	body := sel[1:]
	i := strings.LastIndexByte(body, '.')
	if i <= 0 || i == len(body)-1 {
		return "", "", fmt.Errorf("thingtalk: invalid selector %q", sel)
	}
	return body[:i], body[i+1:], nil
}

// ParseParamToken splits a param:name[:Type] token into its name and
// optional type.
func ParseParamToken(tok string) (name string, typ Type, err error) {
	if !strings.HasPrefix(tok, "param:") {
		return "", nil, fmt.Errorf("thingtalk: invalid parameter token %q", tok)
	}
	rest := tok[len("param:"):]
	if i := strings.IndexByte(rest, ':'); i >= 0 {
		name = rest[:i]
		typ, err = ParseType(rest[i+1:])
		if err != nil {
			return "", nil, err
		}
	} else {
		name = rest
	}
	if name == "" {
		return "", nil, fmt.Errorf("thingtalk: empty parameter name in %q", tok)
	}
	return name, typ, nil
}
