package grammar

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/thingtalk"
)

// tokClass partitions the decoder vocabulary by grammatical role. Every
// vocabulary token is classified exactly once at compile time; decode-time
// legality checks are table lookups keyed by class and payload.
type tokClass uint8

const (
	tcOther tokClass = iota // legal only as a word inside a quoted string
	tcArrow
	tcNow
	tcTimer
	tcAtTimer
	tcMonitor
	tcEdge
	tcNotify
	tcFilter
	tcJoin
	tcOn
	tcNew
	tcAgg
	tcAggOp // payload: aggregate op index (aggOps order)
	tcOf
	tcBase
	tcInterval
	tcTimeKw // the "timer"-clause keyword "time" (distinct from time: values)
	tcEq     // "="
	tcLParen
	tcRParen
	tcQuote
	tcTrue
	tcFalse
	tcAnd
	tcOr
	tcNot
	tcOp   // filter operator; payload: index into thingtalk.Operators
	tcPlus // measure term continuation
	tcSelector
	tcParamAnn  // param:name:Type; payload: index into annParams
	tcParamBare // param:name; payload: interned name index
	tcEnum      // payload: interned member-name index
	tcDateVal   // payload: 1 when the edge name is recognized
	tcTimeVal
	tcLocVal
	tcUnit   // payload: interned base-unit index, -1 for unknown units
	tcNumber // numeric literal
	tcPlaceholder
)

// Placeholder payload kinds (index into phKinds).
var phKinds = []string{"NUMBER", "DATE", "TIME", "LOCATION", "CURRENCY", "DURATION"}

const (
	phNumber = iota
	phDate
	phTime
	phLocation
	phCurrency
	phDuration
)

// aggOps mirrors thingtalk.AggregateOps with count first so the payload
// distinguishes the parameterless form by index 0.
var aggOps = []string{"count", "sum", "avg", "min", "max"}

var keywordClass = map[string]tokClass{
	"=>": tcArrow, "now": tcNow, "timer": tcTimer, "attimer": tcAtTimer,
	"monitor": tcMonitor, "edge": tcEdge, "notify": tcNotify,
	"filter": tcFilter, "join": tcJoin, "on": tcOn, "new": tcNew,
	"agg": tcAgg, "of": tcOf, "base": tcBase, "interval": tcInterval,
	"time": tcTimeKw, "=": tcEq, "(": tcLParen, ")": tcRParen,
	`"`: tcQuote, "true": tcTrue, "false": tcFalse,
	"and": tcAnd, "or": tcOr, "not": tcNot, "+": tcPlus,
}

// EnvEntry is one visible output parameter: interned name and type indexes.
// Environments are append-ordered; later entries shadow earlier ones (the
// typechecker's right-most-wins rule).
type EnvEntry struct{ name, typ int32 }

// typeInfo is one interned parameter type with everything masking needs.
type typeInfo struct {
	t          thingtalk.Type
	str        string
	numeric    bool
	comparable bool
	stringLike bool
	isArray    bool
	elem       int32  // array element type index, -1 otherwise
	base       string // measure base unit; "usd" for Currency; "" otherwise
	baseIdx    int32  // interned base string, -1 when base == ""
	constStart []int32
	constMin   int // min tokens of a complete constant; noConst when none
}

const noConst = 1 << 20

// cParam is one compiled function parameter.
type cParam struct {
	name    string
	nameIdx int32
	typ     int32
	dir     thingtalk.ParamDir
	annID   int32 // vocab id of param:name:Type, -1 when absent
}

// cFn is one compiled function.
type cFn struct {
	sel     string
	selID   int32 // vocab id of the selector token, -1 when absent
	kind    thingtalk.FunctionKind
	monitor bool
	list    bool
	params  []cParam
	reqMask uint64 // bit i set when params[i] is a required input
	inMask  uint64 // bit i set when params[i] is an input
	outEnv  []EnvEntry
	// minCostConst is the env-independent invocation floor: selector plus
	// every required parameter spelled with constants. noConst when some
	// required parameter has no constant form in this vocabulary.
	minCostConst int
}

type aggCand struct {
	minFn int // cheapest satisfying invocation (minCostConst), noConst if none
}

// Automaton is a Spec compiled against one decoder vocabulary.
type Automaton struct {
	vocab []string
	index map[string]int32

	cls     []tokClass
	payload []int32

	strs    []string
	strIdx  map[string]int32
	types   []typeInfo
	typeIdx map[string]int32

	fns        []cFn
	annParams  []EnvEntry         // tcParamAnn payload -> (name, type)
	annByNT    map[int64]int32    // name<<32|type -> vocab id
	bareByName map[int32]int32    // name -> vocab id of param:name
	unitsBy    map[string][]int32 // base unit -> vocab ids of unit: tokens

	kw       map[tokClass]int32 // singleton keyword classes -> vocab id
	aggOpIDs [5]int32
	opIDs    []int32 // per thingtalk.Operators index, -1 when absent

	numberIDs []int32
	phIDs     [6][]int32
	dateIDs   []int32
	timeIDs   []int32
	locIDs    []int32

	// Aggregate viability: countCand covers "agg count"; numCands maps a
	// parameter name to the cheapest List function producing it numerically.
	countCand aggCand
	numCands  map[int32]aggCand

	// Builtin type indexes (timer base, attimer time, timer interval) and the
	// synthetic "agg count" output environment.
	tDate, tTime, tMs int32
	countEnv          []EnvEntry

	// Static token floors for budget accounting.
	minQuery     int // cheapest query invocation (env-independent)
	minMonQuery  int // cheapest monitorable query invocation
	minAction    int // notify, or cheapest action invocation
	minStream    int
	minPred      int
	minAgg       int // cheapest complete aggregate primary, noConst if none
	constMinDate int
	constMinTime int
	constMinMs   int
}

func (a *Automaton) intern(s string) int32 {
	if i, ok := a.strIdx[s]; ok {
		return i
	}
	i := int32(len(a.strs))
	a.strs = append(a.strs, s)
	a.strIdx[s] = i
	return i
}

func (a *Automaton) internType(t thingtalk.Type) int32 {
	key := t.String()
	if i, ok := a.typeIdx[key]; ok {
		return i
	}
	ti := typeInfo{t: t, str: key, elem: -1, baseIdx: -1, constMin: noConst}
	switch tt := t.(type) {
	case thingtalk.NumberType:
		ti.numeric = true
	case thingtalk.CurrencyType:
		ti.numeric = true
		ti.base = "usd"
	case thingtalk.MeasureType:
		ti.numeric = true
		ti.base = tt.Unit
	case thingtalk.ArrayType:
		ti.isArray = true
	}
	ti.comparable = thingtalk.IsComparable(t)
	ti.stringLike = thingtalk.IsStringLike(t)
	if ti.base != "" {
		ti.baseIdx = a.intern(ti.base)
	}
	i := int32(len(a.types))
	a.types = append(a.types, ti)
	a.typeIdx[key] = i
	if at, ok := t.(thingtalk.ArrayType); ok {
		elem := a.internType(at.Elem) // may append; fix up after
		a.types[i].elem = elem
	}
	return i
}

// lookupID returns the vocabulary id of tok, or -1.
func (a *Automaton) lookupID(tok string) int32 {
	if id, ok := a.index[tok]; ok {
		return id
	}
	return -1
}

func classifyPlaceholder(tok string) (int32, bool) {
	if _, ok := thingtalk.PlaceholderKind(tok); !ok {
		return 0, false
	}
	for k, prefix := range phKinds {
		if strings.HasPrefix(tok, prefix+"_") {
			return int32(k), true
		}
	}
	return 0, false
}

func (a *Automaton) classify(tok string) (tokClass, int32) {
	if c, ok := keywordClass[tok]; ok {
		return c, 0
	}
	for i, op := range aggOps {
		if tok == op {
			return tcAggOp, int32(i)
		}
	}
	for i, op := range thingtalk.Operators {
		if tok == op {
			return tcOp, int32(i)
		}
	}
	switch {
	case strings.HasPrefix(tok, "@"):
		for i := range a.fns {
			if a.fns[i].sel == tok {
				return tcSelector, int32(i)
			}
		}
		return tcSelector, -1
	case strings.HasPrefix(tok, "param:"):
		name, typ, err := thingtalk.ParseParamToken(tok)
		if err != nil {
			return tcOther, 0
		}
		if typ == nil {
			return tcParamBare, a.intern(name)
		}
		a.annParams = append(a.annParams, EnvEntry{name: a.intern(name), typ: a.internType(typ)})
		return tcParamAnn, int32(len(a.annParams) - 1)
	case strings.HasPrefix(tok, "enum:"):
		return tcEnum, a.intern(tok[len("enum:"):])
	case strings.HasPrefix(tok, "date:"):
		if thingtalk.IsNamedDate(tok[len("date:"):]) {
			return tcDateVal, 1
		}
		return tcDateVal, 0
	case strings.HasPrefix(tok, "time:"):
		if thingtalk.IsNamedTime(tok[len("time:"):]) {
			return tcTimeVal, 1
		}
		return tcTimeVal, 0
	case strings.HasPrefix(tok, "location:"):
		if thingtalk.IsNamedLocation(tok[len("location:"):]) {
			return tcLocVal, 1
		}
		return tcLocVal, 0
	case strings.HasPrefix(tok, "unit:"):
		if base, ok := thingtalk.UnitDimension(tok[len("unit:"):]); ok {
			return tcUnit, a.intern(base)
		}
		return tcUnit, -1
	}
	if k, ok := classifyPlaceholder(tok); ok {
		return tcPlaceholder, k
	}
	if _, err := strconv.ParseFloat(tok, 64); err == nil {
		return tcNumber, 0
	}
	return tcOther, 0
}

// Compile builds the automaton for spec over a concrete decoder vocabulary
// (the exact token list of the model's target Vocab, reserved entries
// included). It fails if the vocabulary cannot express any complete program.
func Compile(spec *Spec, vocab []string) (*Automaton, error) {
	a := &Automaton{
		vocab:      vocab,
		index:      make(map[string]int32, len(vocab)),
		strIdx:     map[string]int32{},
		typeIdx:    map[string]int32{},
		annByNT:    map[int64]int32{},
		bareByName: map[int32]int32{},
		unitsBy:    map[string][]int32{},
		kw:         map[tokClass]int32{},
		numCands:   map[int32]aggCand{},
	}
	for i, tok := range vocab {
		if _, ok := a.index[tok]; !ok {
			a.index[tok] = int32(i)
		}
	}

	// Compile functions first so selector classification can resolve them.
	for i := range spec.Functions {
		sf := &spec.Functions[i]
		if len(sf.Params) > 64 {
			continue // bitmask bookkeeping bound; no realistic schema exceeds it
		}
		f := cFn{
			sel:     sf.selector(),
			kind:    thingtalk.FunctionKind(sf.Kind),
			monitor: sf.Monitor,
			list:    sf.List,
		}
		f.selID = a.lookupID(f.sel)
		for pi, sp := range sf.Params {
			t, err := thingtalk.ParseType(sp.Type)
			if err != nil {
				return nil, fmt.Errorf("grammar: %s param %s: %w", f.sel, sp.Name, err)
			}
			cp := cParam{
				name:    sp.Name,
				nameIdx: a.intern(sp.Name),
				typ:     a.internType(t),
				dir:     thingtalk.ParamDir(sp.Dir),
				annID:   a.lookupID("param:" + sp.Name + ":" + sp.Type),
			}
			f.params = append(f.params, cp)
			switch cp.dir {
			case thingtalk.DirInReq:
				f.reqMask |= 1 << uint(pi)
				f.inMask |= 1 << uint(pi)
			case thingtalk.DirInOpt:
				f.inMask |= 1 << uint(pi)
			case thingtalk.DirOut:
				f.outEnv = append(f.outEnv, EnvEntry{name: cp.nameIdx, typ: cp.typ})
			}
		}
		a.fns = append(a.fns, f)
	}

	// Classify the vocabulary (skipping the reserved sentinel entries, which
	// are never legal program tokens; EOS legality is tracked separately).
	a.cls = make([]tokClass, len(vocab))
	a.payload = make([]int32, len(vocab))
	for id, tok := range vocab {
		if id < 3 { // <unk>, <s>, </s>
			a.cls[id] = tcOther
			continue
		}
		if int32(id) != a.index[tok] {
			a.cls[id] = tcOther // duplicate spelling; only the first id is used
			continue
		}
		c, p := a.classify(tok)
		a.cls[id], a.payload[id] = c, p
		switch c {
		case tcParamAnn:
			if p >= 0 {
				e := a.annParams[p]
				a.annByNT[int64(e.name)<<32|int64(e.typ)] = int32(id)
			}
		case tcParamBare:
			if _, ok := a.bareByName[p]; !ok {
				a.bareByName[p] = int32(id)
			}
		case tcUnit:
			if p >= 0 {
				base := a.strs[p]
				a.unitsBy[base] = append(a.unitsBy[base], int32(id))
			}
		case tcNumber:
			a.numberIDs = append(a.numberIDs, int32(id))
		case tcPlaceholder:
			a.phIDs[p] = append(a.phIDs[p], int32(id))
		case tcDateVal:
			if p == 1 {
				a.dateIDs = append(a.dateIDs, int32(id))
			}
		case tcTimeVal:
			if p == 1 {
				a.timeIDs = append(a.timeIDs, int32(id))
			}
		case tcLocVal:
			if p == 1 {
				a.locIDs = append(a.locIDs, int32(id))
			}
		case tcAggOp:
			a.aggOpIDs[p] = int32(id) + 1 // stored +1 so zero means absent
		default:
			if _, single := singletonKw[c]; single {
				a.kw[c] = int32(id)
			}
		}
	}
	a.opIDs = make([]int32, len(thingtalk.Operators))
	for i := range a.opIDs {
		a.opIDs[i] = a.lookupID(thingtalk.Operators[i])
	}

	a.tDate = a.internType(thingtalk.DateType{})
	a.tTime = a.internType(thingtalk.TimeType{})
	a.tMs = a.internType(thingtalk.MeasureType{Unit: "ms"})
	a.countEnv = []EnvEntry{{name: a.intern("count"), typ: a.internType(thingtalk.NumberType{})}}

	a.buildConstTables()
	a.buildCosts()

	if err := a.viable(); err != nil {
		return nil, err
	}
	return a, nil
}

// singletonKw marks classes with exactly one spelling.
var singletonKw = map[tokClass]struct{}{
	tcArrow: {}, tcNow: {}, tcTimer: {}, tcAtTimer: {}, tcMonitor: {}, tcEdge: {},
	tcNotify: {}, tcFilter: {}, tcJoin: {}, tcOn: {}, tcNew: {}, tcAgg: {}, tcOf: {},
	tcBase: {}, tcInterval: {}, tcTimeKw: {}, tcEq: {}, tcLParen: {}, tcRParen: {},
	tcQuote: {}, tcTrue: {}, tcFalse: {}, tcAnd: {}, tcOr: {}, tcNot: {}, tcPlus: {},
}

// kwID returns the vocab id of a singleton keyword class, or -1.
func (a *Automaton) kwID(c tokClass) int32 {
	if id, ok := a.kw[c]; ok {
		return id
	}
	return -1
}

func (a *Automaton) aggOpID(op int) int32 { return a.aggOpIDs[op] - 1 }

// magnitudeIDs are the tokens accepted as a measure-term magnitude (parser:
// any numeric literal or normalized placeholder).
func (a *Automaton) magnitudeIDs() []int32 {
	out := append([]int32(nil), a.numberIDs...)
	out = append(out, a.phIDs[phNumber]...)
	out = append(out, a.phIDs[phDuration]...)
	out = append(out, a.phIDs[phCurrency]...)
	return out
}

// buildConstTables fills each interned type's constant-start token list and
// minimum constant length, mirroring typecheck.valueCompatible.
func (a *Automaton) buildConstTables() {
	mags := a.magnitudeIDs()
	for i := range a.types {
		ti := &a.types[i]
		switch t := ti.t.(type) {
		case thingtalk.StringType, thingtalk.PathNameType, thingtalk.URLType, thingtalk.EntityType:
			if q := a.kwID(tcQuote); q >= 0 {
				ti.constStart = []int32{q}
				ti.constMin = 2
			}
		case thingtalk.NumberType:
			ti.constStart = append(append([]int32(nil), a.numberIDs...), a.phIDs[phNumber]...)
			if len(ti.constStart) > 0 {
				ti.constMin = 1
			}
		case thingtalk.BoolType:
			for _, c := range []tokClass{tcTrue, tcFalse} {
				if id := a.kwID(c); id >= 0 {
					ti.constStart = append(ti.constStart, id)
				}
			}
			if len(ti.constStart) > 0 {
				ti.constMin = 1
			}
		case thingtalk.DateType:
			ti.constStart = append(append([]int32(nil), a.dateIDs...), a.phIDs[phDate]...)
			if len(ti.constStart) > 0 {
				ti.constMin = 1
			}
		case thingtalk.TimeType:
			ti.constStart = append(append([]int32(nil), a.timeIDs...), a.phIDs[phTime]...)
			if len(ti.constStart) > 0 {
				ti.constMin = 1
			}
		case thingtalk.LocationType:
			ti.constStart = append(append([]int32(nil), a.locIDs...), a.phIDs[phLocation]...)
			if len(ti.constStart) > 0 {
				ti.constMin = 1
			}
		case thingtalk.CurrencyType:
			ti.constStart = append([]int32(nil), a.phIDs[phCurrency]...)
			if len(ti.constStart) > 0 {
				ti.constMin = 1
			}
			if len(a.unitsBy["usd"]) > 0 && len(mags) > 0 {
				ti.constStart = append(ti.constStart, mags...)
				if ti.constMin > 2 {
					ti.constMin = 2
				}
			}
		case thingtalk.MeasureType:
			if t.Unit == "ms" {
				ti.constStart = append([]int32(nil), a.phIDs[phDuration]...)
				if len(ti.constStart) > 0 {
					ti.constMin = 1
				}
			}
			if len(a.unitsBy[t.Unit]) > 0 && len(mags) > 0 {
				ti.constStart = append(ti.constStart, mags...)
				if ti.constMin > 2 {
					ti.constMin = 2
				}
			}
		case thingtalk.EnumType:
			for _, v := range t.Values {
				if id := a.lookupID("enum:" + v); id >= 0 {
					ti.constStart = append(ti.constStart, id)
				}
			}
			if len(ti.constStart) > 0 {
				ti.constMin = 1
			}
		case thingtalk.ArrayType:
			// Array constants do not exist; arrays flow only through varrefs
			// and contains-filters over the element type.
		}
		dedupSorted(&ti.constStart)
	}
}

func dedupSorted(ids *[]int32) {
	s := *ids
	if len(s) < 2 {
		return
	}
	sortInt32(s)
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[w-1] {
			s[w] = s[i]
			w++
		}
	}
	*ids = s[:w]
}

func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// buildCosts computes per-function and global token floors used by the
// decode-length budget.
func (a *Automaton) buildCosts() {
	for i := range a.fns {
		f := &a.fns[i]
		f.minCostConst = 1
		if f.selID < 0 {
			f.minCostConst = noConst
			continue
		}
		for pi := range f.params {
			if f.reqMask&(1<<uint(pi)) == 0 {
				continue
			}
			p := &f.params[pi]
			cm := a.types[p.typ].constMin
			if p.annID < 0 || cm >= noConst || a.kwID(tcEq) < 0 {
				f.minCostConst = noConst
				break
			}
			f.minCostConst += 2 + cm
		}
	}

	a.minQuery, a.minMonQuery, a.minAction = noConst, noConst, noConst
	a.countCand = aggCand{minFn: noConst}
	for i := range a.fns {
		f := &a.fns[i]
		if f.minCostConst >= noConst {
			continue
		}
		switch f.kind {
		case thingtalk.KindQuery:
			if f.minCostConst < a.minQuery {
				a.minQuery = f.minCostConst
			}
			if f.monitor && f.minCostConst < a.minMonQuery {
				a.minMonQuery = f.minCostConst
			}
			if f.list {
				if f.minCostConst < a.countCand.minFn {
					a.countCand.minFn = f.minCostConst
				}
				for _, e := range f.outEnv {
					if !a.types[e.typ].numeric {
						continue
					}
					if _, ok := a.bareByName[e.name]; !ok {
						continue
					}
					c := a.numCands[e.name]
					if c.minFn == 0 {
						c.minFn = noConst
					}
					if f.minCostConst < c.minFn {
						c.minFn = f.minCostConst
					}
					a.numCands[e.name] = c
				}
			}
		case thingtalk.KindAction:
			if f.minCostConst < a.minAction {
				a.minAction = f.minCostConst
			}
		}
	}
	if a.kwID(tcNotify) >= 0 {
		a.minAction = 1
	}

	a.minStream = noConst
	if a.kwID(tcNow) >= 0 {
		a.minStream = 1
	}
	if a.minMonQuery < noConst && a.kwID(tcMonitor) >= 0 && a.kwID(tcLParen) >= 0 && a.kwID(tcRParen) >= 0 {
		if m := 3 + a.minMonQuery; m < a.minStream {
			a.minStream = m
		}
	}

	a.minPred = 3 // param op single-token-value floor
	if a.kwID(tcTrue) >= 0 || a.kwID(tcFalse) >= 0 {
		a.minPred = 1
	}

	a.constMinDate = a.types[a.tDate].constMin
	a.constMinTime = a.types[a.tTime].constMin
	a.constMinMs = a.types[a.tMs].constMin

	a.minAgg = noConst
	if a.countCand.minFn < noConst {
		a.minAgg = 4 + a.countCand.minFn
	}
	for _, c := range a.numCands {
		if 5+c.minFn < a.minAgg {
			a.minAgg = 5 + c.minFn
		}
	}
}

// viable rejects vocabularies that cannot express any complete program; the
// caller then decodes unmasked rather than with an automaton that would dead-
// end immediately.
func (a *Automaton) viable() error {
	if a.kwID(tcArrow) < 0 {
		return fmt.Errorf("grammar: vocabulary has no \"=>\" token")
	}
	if a.minStream >= noConst {
		return fmt.Errorf("grammar: vocabulary cannot express any stream clause")
	}
	if a.minAction >= noConst {
		return fmt.Errorf("grammar: vocabulary cannot express any action clause")
	}
	return nil
}

// typeAssignable mirrors typecheck.assignable over interned types.
func (a *Automaton) typeAssignable(src, dst int32) bool {
	if src == dst {
		return true
	}
	return a.types[src].stringLike && a.types[dst].stringLike
}

// envAssignable reports whether env exposes an output a varref could pass to
// an input of type dst (right-most entries shadow earlier ones by name).
func (a *Automaton) envAssignable(env []EnvEntry, dst int32) bool {
	seen := map[int32]bool{}
	for i := len(env) - 1; i >= 0; i-- {
		e := env[i]
		if seen[e.name] {
			continue
		}
		seen[e.name] = true
		if _, ok := a.bareByName[e.name]; !ok {
			continue
		}
		if a.typeAssignable(e.typ, dst) {
			return true
		}
	}
	return false
}

// envLookup returns the visible (right-most) type of name in env.
func envLookup(env []EnvEntry, name int32) (int32, bool) {
	for i := len(env) - 1; i >= 0; i-- {
		if env[i].name == name {
			return env[i].typ, true
		}
	}
	return 0, false
}

// extendEnv returns a fresh slice a++b (b shadows a). Environments are
// immutable once built, so states can share them across beam forks.
func extendEnv(base, add []EnvEntry) []EnvEntry {
	if len(add) == 0 {
		return base
	}
	out := make([]EnvEntry, 0, len(base)+len(add))
	out = append(out, base...)
	out = append(out, add...)
	return out
}
