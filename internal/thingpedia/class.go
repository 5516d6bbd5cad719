// Package thingpedia implements the skill library of the Genie paper
// (Section 2.2): a registry of classes describing web services and IoT
// devices, each declaring query and action functions (Fig. 3) and a set of
// developer-supplied primitive templates (Table 1).
//
// Classes are written in a textual DSL matching the grammar of Fig. 3 and
// parsed by this package; the built-in library (builtin_*.go) is a simulated
// Thingpedia with the same shape as the deployment the paper evaluates on
// (40+ skills, 130+ functions, 175+ distinct parameters).
package thingpedia

import (
	"fmt"
	"sort"

	"repro/internal/thingtalk"
)

// Class is one skill: a named collection of query and action functions.
type Class struct {
	Name      string // e.g. com.dropbox
	Extends   []string
	Functions []*thingtalk.FunctionSchema
	// Easy reports developer guidance for paraphrase sampling: easy-to-
	// understand skills are combined with hard ones to maximize paraphrase
	// quality (Section 3.2).
	Easy bool
}

// Function returns the named function of the class.
func (c *Class) Function(name string) (*thingtalk.FunctionSchema, bool) {
	for _, f := range c.Functions {
		if f.Name == name {
			return f, true
		}
	}
	return nil, false
}

// PrimitiveCategory is the natural-language grammar category of a primitive
// template utterance.
type PrimitiveCategory string

// Primitive template categories (Table 1). A query can be expressed both as
// a noun phrase ("the download URL of $x") and as a verb phrase ("open $x");
// actions are verb phrases; streams are when-phrases.
const (
	CatNP  PrimitiveCategory = "np"  // noun phrase (query)
	CatQVP PrimitiveCategory = "qvp" // verb phrase (query)
	CatWP  PrimitiveCategory = "wp"  // when phrase (stream)
	CatAVP PrimitiveCategory = "avp" // verb phrase (action)
)

// Placeholder declares one $-argument of a primitive template.
type Placeholder struct {
	Name string
	Type thingtalk.Type
}

// Primitive is a developer-supplied primitive template: an utterance with
// typed placeholders and the code fragment it denotes.
type Primitive struct {
	Class    string
	Category PrimitiveCategory
	// Utterance is the tokenized natural-language pattern; placeholder
	// tokens are spelled $name.
	Utterance []string
	Args      []Placeholder
	// Exactly one of Query, Stream, Action is set, consistent with
	// Category.
	Query  *thingtalk.Query
	Stream *thingtalk.Stream
	Action *thingtalk.Action
	// Flags select template subsets (e.g. "train", "paraphrase"); empty
	// means all purposes (Section 3.1).
	Flags []string
}

// Arg returns the declared placeholder named name.
func (p *Primitive) Arg(name string) (Placeholder, bool) {
	for _, a := range p.Args {
		if a.Name == name {
			return a, true
		}
	}
	return Placeholder{}, false
}

// Library is a set of classes with their primitive templates. It implements
// thingtalk.SchemaSource.
type Library struct {
	classes    map[string]*Class
	order      []string
	schemas    thingtalk.SchemaMap
	primitives []*Primitive
}

// NewLibrary returns an empty library.
func NewLibrary() *Library {
	return &Library{classes: map[string]*Class{}, schemas: thingtalk.SchemaMap{}}
}

// AddClass registers a class and its functions.
func (l *Library) AddClass(c *Class) error {
	if _, dup := l.classes[c.Name]; dup {
		return fmt.Errorf("thingpedia: duplicate class %q", c.Name)
	}
	for _, f := range c.Functions {
		if err := f.Validate(); err != nil {
			return err
		}
		l.schemas.Add(f)
	}
	l.classes[c.Name] = c
	l.order = append(l.order, c.Name)
	return nil
}

// AddPrimitive registers a primitive template after validating it against
// the library's schemas.
func (l *Library) AddPrimitive(p *Primitive) error {
	if err := l.validatePrimitive(p); err != nil {
		return err
	}
	l.primitives = append(l.primitives, p)
	return nil
}

func (l *Library) validatePrimitive(p *Primitive) error {
	desc := fmt.Sprintf("template %q", joinWords(p.Utterance))
	// Every placeholder in the utterance must be declared and used; every
	// declared placeholder must appear in both utterance and code.
	used := map[string]bool{}
	for _, tok := range p.Utterance {
		if len(tok) > 1 && tok[0] == '$' {
			name := tok[1:]
			if _, ok := p.Arg(name); !ok {
				return fmt.Errorf("thingpedia: %s: undeclared placeholder $%s", desc, name)
			}
			used[name] = true
		}
	}
	for _, a := range p.Args {
		if !used[a.Name] {
			return fmt.Errorf("thingpedia: %s: declared placeholder $%s unused in utterance", desc, a.Name)
		}
	}
	codeSlots := map[string]bool{}
	resolve := func(v *thingtalk.Value, param string) error {
		if v.Kind != thingtalk.VSlot || v.Name == "" {
			return nil
		}
		a, ok := p.Arg(v.Name)
		if !ok {
			return fmt.Errorf("thingpedia: %s: undeclared placeholder $%s in code", desc, v.Name)
		}
		v.SlotType = a.Type
		v.SlotParam = param
		codeSlots[v.Name] = true
		return nil
	}
	var err error
	switch p.Category {
	case CatNP, CatQVP:
		if p.Query == nil {
			return fmt.Errorf("thingpedia: %s: %s template must carry a query", desc, p.Category)
		}
		if err = walkQueryValues(p.Query, resolve); err != nil {
			return err
		}
		_, err = thingtalk.TypecheckQuery(p.Query, l)
	case CatWP:
		if p.Stream == nil {
			return fmt.Errorf("thingpedia: %s: wp template must carry a stream", desc)
		}
		if err = walkStreamValues(p.Stream, resolve); err != nil {
			return err
		}
		_, err = thingtalk.TypecheckStream(p.Stream, l)
	case CatAVP:
		if p.Action == nil {
			return fmt.Errorf("thingpedia: %s: avp template must carry an action", desc)
		}
		if err = walkActionValues(p.Action, resolve); err != nil {
			return err
		}
		err = thingtalk.TypecheckAction(p.Action, l, nil)
	default:
		return fmt.Errorf("thingpedia: %s: unknown category %q", desc, p.Category)
	}
	if err != nil {
		return fmt.Errorf("thingpedia: %s: %w", desc, err)
	}
	for _, a := range p.Args {
		if !codeSlots[a.Name] {
			return fmt.Errorf("thingpedia: %s: declared placeholder $%s unused in code", desc, a.Name)
		}
	}
	return nil
}

// Schema implements thingtalk.SchemaSource.
func (l *Library) Schema(class, function string) (*thingtalk.FunctionSchema, bool) {
	return l.schemas.Schema(class, function)
}

// Schemas returns the underlying schema map (shared, not a copy).
func (l *Library) Schemas() thingtalk.SchemaMap { return l.schemas }

// Class returns the named class.
func (l *Library) Class(name string) (*Class, bool) {
	c, ok := l.classes[name]
	return c, ok
}

// Classes returns all classes in registration order.
func (l *Library) Classes() []*Class {
	out := make([]*Class, 0, len(l.order))
	for _, name := range l.order {
		out = append(out, l.classes[name])
	}
	return out
}

// Primitives returns all primitive templates, optionally restricted to one
// class (empty class means all).
func (l *Library) Primitives(class string) []*Primitive {
	if class == "" {
		return l.primitives
	}
	var out []*Primitive
	for _, p := range l.primitives {
		if p.Class == class {
			out = append(out, p)
		}
	}
	return out
}

// Functions returns every function schema, sorted by selector.
func (l *Library) Functions() []*thingtalk.FunctionSchema {
	var out []*thingtalk.FunctionSchema
	for _, c := range l.Classes() {
		out = append(out, c.Functions...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Selector() < out[j].Selector() })
	return out
}

// Stats summarizes the library in the paper's terms (Section 5: "131
// functions, 178 distinct parameters, and 44 skills").
type Stats struct {
	Skills         int
	Functions      int
	Queries        int
	Actions        int
	DistinctParams int
	Primitives     int
	PerFunction    float64 // primitive templates per function
}

// Stats computes library statistics.
func (l *Library) Stats() Stats {
	s := Stats{Skills: len(l.classes), Primitives: len(l.primitives)}
	params := map[string]bool{}
	for _, c := range l.Classes() {
		for _, f := range c.Functions {
			s.Functions++
			if f.Kind == thingtalk.KindQuery {
				s.Queries++
			} else {
				s.Actions++
			}
			for _, p := range f.Params {
				params[p.Name] = true
			}
		}
	}
	s.DistinctParams = len(params)
	if s.Functions > 0 {
		s.PerFunction = float64(s.Primitives) / float64(s.Functions)
	}
	return s
}

func joinWords(words []string) string {
	out := ""
	for i, w := range words {
		if i > 0 {
			out += " "
		}
		out += w
	}
	return out
}

// --- Value walkers ------------------------------------------------------------

func walkQueryValues(q *thingtalk.Query, f func(*thingtalk.Value, string) error) error {
	if q == nil {
		return nil
	}
	switch q.Kind {
	case thingtalk.QueryInvocation:
		return walkInvocationValues(q.Invocation, f)
	case thingtalk.QueryFilter:
		if err := walkQueryValues(q.Inner, f); err != nil {
			return err
		}
		return walkPredicateValues(q.Predicate, f)
	case thingtalk.QueryJoin:
		if err := walkQueryValues(q.Inner, f); err != nil {
			return err
		}
		if err := walkQueryValues(q.Right, f); err != nil {
			return err
		}
		for i := range q.JoinParams {
			if err := f(&q.JoinParams[i].Value, q.JoinParams[i].Name); err != nil {
				return err
			}
		}
		return nil
	case thingtalk.QueryAggregate:
		return walkQueryValues(q.Inner, f)
	}
	return nil
}

func walkStreamValues(s *thingtalk.Stream, f func(*thingtalk.Value, string) error) error {
	if s == nil {
		return nil
	}
	switch s.Kind {
	case thingtalk.StreamTimer:
		if err := f(&s.Base, "base"); err != nil {
			return err
		}
		return f(&s.Interval, "interval")
	case thingtalk.StreamAtTimer:
		return f(&s.Time, "time")
	case thingtalk.StreamMonitor:
		return walkQueryValues(s.Monitor, f)
	case thingtalk.StreamEdge:
		if err := walkStreamValues(s.Inner, f); err != nil {
			return err
		}
		return walkPredicateValues(s.Predicate, f)
	}
	return nil
}

func walkActionValues(a *thingtalk.Action, f func(*thingtalk.Value, string) error) error {
	if a == nil || a.Invocation == nil {
		return nil
	}
	return walkInvocationValues(a.Invocation, f)
}

func walkInvocationValues(inv *thingtalk.Invocation, f func(*thingtalk.Value, string) error) error {
	for i := range inv.In {
		if err := f(&inv.In[i].Value, inv.In[i].Name); err != nil {
			return err
		}
	}
	return nil
}

func walkPredicateValues(p *thingtalk.Predicate, f func(*thingtalk.Value, string) error) error {
	if p == nil {
		return nil
	}
	switch p.Kind {
	case thingtalk.PredAtom:
		return f(&p.Value, p.Param)
	case thingtalk.PredNot, thingtalk.PredAnd, thingtalk.PredOr:
		for _, ch := range p.Children {
			if err := walkPredicateValues(ch, f); err != nil {
				return err
			}
		}
		return nil
	case thingtalk.PredExternal:
		if err := walkInvocationValues(p.External, f); err != nil {
			return err
		}
		return walkPredicateValues(p.InnerPred, f)
	}
	return nil
}

// WalkProgramValues applies f to every value in the program, passing the
// parameter name the value occupies. Exported for the augmentation stage.
func WalkProgramValues(prog *thingtalk.Program, f func(*thingtalk.Value, string) error) error {
	if prog.Stream != nil {
		if err := walkStreamValues(prog.Stream, f); err != nil {
			return err
		}
	}
	if prog.Query != nil {
		if err := walkQueryValues(prog.Query, f); err != nil {
			return err
		}
	}
	return walkActionValues(prog.Action, f)
}
