package thingtalk

import (
	"math/rand"
	"sort"
)

// testSchemas is a small skill library used across the package tests; it
// mirrors the shapes in the paper's figures (Dropbox, Twitter, weather,
// Facebook, the cat API).
func testSchemas() SchemaMap {
	m := SchemaMap{}
	m.Add(&FunctionSchema{
		Class: "com.dropbox", Name: "list_folder", Kind: KindQuery, Monitor: true, List: true,
		Canonical: "files in my dropbox",
		Params: []ParamSpec{
			{Name: "folder_name", Dir: DirInOpt, Type: PathNameType{}},
			{Name: "order_by", Dir: DirInOpt, Type: EnumType{Values: []string{"modified_time_decreasing", "modified_time_increasing"}}},
			{Name: "file_name", Dir: DirOut, Type: PathNameType{}},
			{Name: "is_folder", Dir: DirOut, Type: BoolType{}},
			{Name: "modified_time", Dir: DirOut, Type: DateType{}},
			{Name: "file_size", Dir: DirOut, Type: MeasureType{Unit: "byte"}},
		},
	})
	m.Add(&FunctionSchema{
		Class: "com.dropbox", Name: "open", Kind: KindQuery,
		Canonical: "the download link",
		Params: []ParamSpec{
			{Name: "file_name", Dir: DirInReq, Type: PathNameType{}},
			{Name: "download_url", Dir: DirOut, Type: URLType{}},
		},
	})
	m.Add(&FunctionSchema{
		Class: "com.dropbox", Name: "move", Kind: KindAction,
		Canonical: "move a file",
		Params: []ParamSpec{
			{Name: "old_name", Dir: DirInReq, Type: PathNameType{}},
			{Name: "new_name", Dir: DirInReq, Type: PathNameType{}},
		},
	})
	m.Add(&FunctionSchema{
		Class: "com.twitter", Name: "timeline", Kind: KindQuery, Monitor: true, List: true,
		Canonical: "tweets in my timeline",
		Params: []ParamSpec{
			{Name: "author", Dir: DirOut, Type: EntityType{Kind: "tt:username"}},
			{Name: "text", Dir: DirOut, Type: StringType{}},
			{Name: "hashtags", Dir: DirOut, Type: ArrayType{Elem: StringType{}}},
			{Name: "tweet_id", Dir: DirOut, Type: EntityType{Kind: "com.twitter:id"}},
		},
	})
	m.Add(&FunctionSchema{
		Class: "com.twitter", Name: "retweet", Kind: KindAction,
		Canonical: "retweet",
		Params: []ParamSpec{
			{Name: "tweet_id", Dir: DirInReq, Type: EntityType{Kind: "com.twitter:id"}},
		},
	})
	m.Add(&FunctionSchema{
		Class: "com.twitter", Name: "post", Kind: KindAction,
		Canonical: "tweet",
		Params: []ParamSpec{
			{Name: "status", Dir: DirInReq, Type: StringType{}},
		},
	})
	m.Add(&FunctionSchema{
		Class: "org.thingpedia.weather", Name: "current", Kind: KindQuery, Monitor: true,
		Canonical: "the current weather",
		Params: []ParamSpec{
			{Name: "location", Dir: DirInOpt, Type: LocationType{}},
			{Name: "temperature", Dir: DirOut, Type: MeasureType{Unit: "C"}},
			{Name: "humidity", Dir: DirOut, Type: NumberType{}},
			{Name: "status", Dir: DirOut, Type: EnumType{Values: []string{"sunny", "cloudy", "raining", "snowing"}}},
		},
	})
	m.Add(&FunctionSchema{
		Class: "com.thecatapi", Name: "get", Kind: KindQuery, List: true,
		Canonical: "a cat picture",
		Params: []ParamSpec{
			{Name: "count", Dir: DirInOpt, Type: NumberType{}},
			{Name: "picture_url", Dir: DirOut, Type: URLType{}},
			{Name: "image_id", Dir: DirOut, Type: EntityType{Kind: "com.thecatapi:image_id"}},
		},
	})
	m.Add(&FunctionSchema{
		Class: "com.facebook", Name: "post_picture", Kind: KindAction,
		Canonical: "post a picture on facebook",
		Params: []ParamSpec{
			{Name: "picture_url", Dir: DirInReq, Type: URLType{}},
			{Name: "caption", Dir: DirInOpt, Type: StringType{}},
		},
	})
	m.Add(&FunctionSchema{
		Class: "com.yandex", Name: "translate", Kind: KindQuery,
		Canonical: "the translation",
		Params: []ParamSpec{
			{Name: "text", Dir: DirInReq, Type: StringType{}},
			{Name: "target_language", Dir: DirInOpt, Type: EntityType{Kind: "tt:iso_lang_code"}},
			{Name: "translated_text", Dir: DirOut, Type: StringType{}},
		},
	})
	m.Add(&FunctionSchema{
		Class: "com.nytimes", Name: "get_front_page", Kind: KindQuery, Monitor: true, List: true,
		Canonical: "articles on the new york times front page",
		Params: []ParamSpec{
			{Name: "title", Dir: DirOut, Type: StringType{}},
			{Name: "link", Dir: DirOut, Type: URLType{}},
			{Name: "updated", Dir: DirOut, Type: DateType{}},
		},
	})
	return m
}

// mustParse parses src or panics; for test fixtures only.
func mustParse(src string) *Program {
	p, err := ParseProgram(src)
	if err != nil {
		panic(err)
	}
	return p
}

// genProgram builds a random well-typed program over testSchemas, used by
// the property-based tests.
func genProgram(rng *rand.Rand) *Program {
	schemas := testSchemas()
	queries := []*FunctionSchema{}
	actions := []*FunctionSchema{}
	for _, sch := range schemas {
		if sch.Kind == KindQuery {
			queries = append(queries, sch)
		} else {
			actions = append(actions, sch)
		}
	}
	// Deterministic ordering (map iteration is random).
	sortSchemas(queries)
	sortSchemas(actions)

	q := genQuery(rng, queries)
	var stream *Stream
	switch rng.Intn(3) {
	case 0:
		stream = Now()
	case 1:
		stream = Timer(DateValue("now"), MeasureValue(float64(1+rng.Intn(12)), "h"))
	default:
		// Monitor requires all functions monitorable.
		mq := genMonitorableQuery(rng, queries)
		stream = Monitor(mq)
	}
	var action *Action
	if rng.Intn(2) == 0 {
		action = Notify()
	} else {
		asch := actions[rng.Intn(len(actions))]
		inv := &Invocation{Class: asch.Class, Function: asch.Name}
		for _, ps := range asch.InParams() {
			if ps.Dir == DirInReq {
				inv.In = append(inv.In, InputParam{Name: ps.Name, Value: genValue(rng, ps.Type)})
			}
		}
		action = &Action{Invocation: inv}
	}
	prog := &Program{Stream: stream, Query: q, Action: action}
	if rng.Intn(4) == 0 {
		prog.Query = nil
		if !prog.Action.Notify {
			return prog
		}
		prog.Action = Notify()
		prog.Query = q
	}
	return prog
}

func sortSchemas(s []*FunctionSchema) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Selector() < s[j-1].Selector(); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func genQuery(rng *rand.Rand, queries []*FunctionSchema) *Query {
	sch := queries[rng.Intn(len(queries))]
	q := genInvocationQuery(rng, sch)
	if rng.Intn(3) == 0 {
		if pred := genPredicate(rng, sch, 2); pred != nil {
			q = Filter(q, pred)
		}
	}
	return q
}

func genMonitorableQuery(rng *rand.Rand, queries []*FunctionSchema) *Query {
	var mon []*FunctionSchema
	for _, sch := range queries {
		if sch.Monitor {
			mon = append(mon, sch)
		}
	}
	sch := mon[rng.Intn(len(mon))]
	q := genInvocationQuery(rng, sch)
	if rng.Intn(3) == 0 {
		if pred := genPredicate(rng, sch, 2); pred != nil {
			q = Filter(q, pred)
		}
	}
	return q
}

func genInvocationQuery(rng *rand.Rand, sch *FunctionSchema) *Query {
	inv := &Invocation{Class: sch.Class, Function: sch.Name}
	for _, ps := range sch.InParams() {
		if ps.Dir == DirInReq || rng.Intn(3) == 0 {
			inv.In = append(inv.In, InputParam{Name: ps.Name, Value: genValue(rng, ps.Type)})
		}
	}
	return &Query{Kind: QueryInvocation, Invocation: inv}
}

func genPredicate(rng *rand.Rand, sch *FunctionSchema, depth int) *Predicate {
	outs := sch.OutParams()
	if len(outs) == 0 {
		return nil
	}
	if depth > 0 && rng.Intn(4) == 0 {
		a := genPredicate(rng, sch, depth-1)
		b := genPredicate(rng, sch, depth-1)
		if a == nil || b == nil {
			return a
		}
		if rng.Intn(2) == 0 {
			return And(a, b)
		}
		return Or(a, b)
	}
	if depth > 0 && rng.Intn(6) == 0 {
		inner := genPredicate(rng, sch, depth-1)
		if inner != nil {
			return Not(inner)
		}
	}
	ps := outs[rng.Intn(len(outs))]
	op, v := genAtomFor(rng, ps.Type)
	if op == "" {
		return nil
	}
	return Atom(ps.Name, op, v)
}

func genAtomFor(rng *rand.Rand, t Type) (string, Value) {
	switch t := t.(type) {
	case StringType, PathNameType, URLType, EntityType:
		ops := []string{OpEq, OpSubstr, OpStartsWith, OpEndsWith}
		return ops[rng.Intn(len(ops))], StringValue(genWord(rng), genWord(rng))
	case NumberType:
		ops := []string{OpEq, OpGt, OpLt, OpGe, OpLe}
		return ops[rng.Intn(len(ops))], NumberValue(float64(rng.Intn(100)))
	case BoolType:
		return OpEq, BoolValue(rng.Intn(2) == 0)
	case DateType:
		ops := []string{OpGt, OpLt}
		return ops[rng.Intn(len(ops))], DateValue(NamedDates[rng.Intn(len(NamedDates))])
	case MeasureType:
		ops := []string{OpGt, OpLt, OpGe, OpLe}
		units := unitsOf(t.Unit)
		return ops[rng.Intn(len(ops))], MeasureValue(float64(1+rng.Intn(50)), units[rng.Intn(len(units))])
	case EnumType:
		return OpEq, EnumValue(t.Values[rng.Intn(len(t.Values))])
	case ArrayType:
		if _, ok := t.Elem.(StringType); ok {
			return OpContains, StringValue(genWord(rng))
		}
	}
	return "", Value{}
}

func genValue(rng *rand.Rand, t Type) Value {
	switch t := t.(type) {
	case StringType, PathNameType, URLType, EntityType:
		n := 1 + rng.Intn(3)
		words := make([]string, n)
		for i := range words {
			words[i] = genWord(rng)
		}
		return StringValue(words...)
	case NumberType:
		return NumberValue(float64(rng.Intn(1000)))
	case BoolType:
		return BoolValue(rng.Intn(2) == 0)
	case DateType:
		return DateValue(NamedDates[rng.Intn(len(NamedDates))])
	case TimeType:
		return TimeValue(NamedTimes[rng.Intn(len(NamedTimes))])
	case LocationType:
		return LocationValue(NamedLocations[rng.Intn(len(NamedLocations))])
	case CurrencyType:
		return MeasureValue(float64(1+rng.Intn(100)), "usd")
	case MeasureType:
		units := unitsOf(t.Unit)
		return MeasureValue(float64(1+rng.Intn(100)), units[rng.Intn(len(units))])
	case EnumType:
		return EnumValue(t.Values[rng.Intn(len(t.Values))])
	}
	return NumberValue(0)
}

var testWords = []string{
	"funny", "cat", "report", "project", "music", "vacation", "deadline",
	"hello", "world", "photos", "budget", "meeting", "notes", "taxes",
}

func genWord(rng *rand.Rand) string { return testWords[rng.Intn(len(testWords))] }

// unitsOf returns all known units of the dimension identified by base, in a
// deterministic order.
func unitsOf(base string) []string {
	var out []string
	for u, spec := range unitTable {
		if spec.base == base {
			out = append(out, u)
		}
	}
	sort.Strings(out)
	return out
}
