package thingtalk

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseTypeRoundTrip(t *testing.T) {
	cases := []string{
		"String", "Number", "Boolean", "Date", "Time", "PathName", "URL",
		"Location", "Currency",
		"Measure(byte)", "Measure(ms)", "Measure(C)",
		"Enum(a,b,c)", "Entity(tt:username)", "Array(String)",
		"Array(Measure(byte))", "Array(Entity(com.twitter:id))",
	}
	for _, src := range cases {
		typ, err := ParseType(src)
		if err != nil {
			t.Fatalf("ParseType(%q): %v", src, err)
		}
		if got := typ.String(); got != src {
			t.Errorf("ParseType(%q).String() = %q", src, got)
		}
		again, err := ParseType(typ.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", typ.String(), err)
		}
		if !typ.Equal(again) {
			t.Errorf("type %q not equal after round trip", src)
		}
	}
}

func TestParseTypeNormalizesUnits(t *testing.T) {
	typ, err := ParseType("Measure(KB)")
	if err != nil {
		t.Fatal(err)
	}
	if typ.String() != "Measure(byte)" {
		t.Errorf("Measure(KB) should normalize to base unit, got %s", typ)
	}
}

func TestParseTypeErrors(t *testing.T) {
	for _, src := range []string{
		"", "string", "Measure()", "Measure(parsec)", "Enum()", "Enum(,)",
		"Entity()", "Array(Nope)", "Array(String", "Foo(bar)",
	} {
		if _, err := ParseType(src); err == nil {
			t.Errorf("ParseType(%q) should fail", src)
		}
	}
}

func TestTypeEquality(t *testing.T) {
	if (StringType{}).Equal(NumberType{}) {
		t.Error("String == Number")
	}
	if !(EnumType{Values: []string{"a", "b"}}).Equal(EnumType{Values: []string{"b", "a"}}) {
		t.Error("enum equality should ignore order")
	}
	if (EnumType{Values: []string{"a"}}).Equal(EnumType{Values: []string{"a", "b"}}) {
		t.Error("enums of different size equal")
	}
	if (MeasureType{Unit: "byte"}).Equal(MeasureType{Unit: "ms"}) {
		t.Error("measures of different dimension equal")
	}
	if !(ArrayType{Elem: StringType{}}).Equal(ArrayType{Elem: StringType{}}) {
		t.Error("array equality broken")
	}
	if (EntityType{Kind: "a"}).Equal(EntityType{Kind: "b"}) {
		t.Error("entities of different kind equal")
	}
}

// genType builds a random type for the property test.
func genType(rng *rand.Rand, depth int) Type {
	choices := 10
	if depth > 0 {
		choices = 13
	}
	switch rng.Intn(choices) {
	case 0:
		return StringType{}
	case 1:
		return NumberType{}
	case 2:
		return BoolType{}
	case 3:
		return DateType{}
	case 4:
		return TimeType{}
	case 5:
		return PathNameType{}
	case 6:
		return URLType{}
	case 7:
		return LocationType{}
	case 8:
		return CurrencyType{}
	case 9:
		bases := []string{"byte", "ms", "m", "C", "kg", "mps", "bpm"}
		return MeasureType{Unit: bases[rng.Intn(len(bases))]}
	case 10:
		n := 1 + rng.Intn(4)
		vals := make([]string, n)
		for i := range vals {
			vals[i] = genWord(rng) + "_" + string(rune('a'+i))
		}
		return EnumType{Values: vals}
	case 11:
		return EntityType{Kind: "tt:" + genWord(rng)}
	default:
		return ArrayType{Elem: genType(rng, depth-1)}
	}
}

func TestQuickTypeStringParseIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		typ := genType(rng, 2)
		parsed, err := ParseType(typ.String())
		if err != nil {
			t.Logf("ParseType(%q): %v", typ.String(), err)
			return false
		}
		return parsed.Equal(typ)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestUnitConversions(t *testing.T) {
	cases := []struct {
		amount float64
		unit   string
		want   float64
	}{
		{1, "KB", 1000},
		{2, "h", 7200e3},
		{32, "F", 0},
		{212, "F", 100},
		{273.15, "K", 0},
		{1, "mi", 1609.344},
	}
	for _, c := range cases {
		got, ok := ConvertUnit(c.amount, c.unit)
		if !ok {
			t.Fatalf("ConvertUnit(%v, %q) not ok", c.amount, c.unit)
		}
		if diff := got - c.want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("ConvertUnit(%v, %q) = %v, want %v", c.amount, c.unit, got, c.want)
		}
	}
	if _, ok := ConvertUnit(1, "parsec"); ok {
		t.Error("unknown unit should not convert")
	}
}

func TestUnitsOf(t *testing.T) {
	units := unitsOf("byte")
	if len(units) != 5 {
		t.Fatalf("unitsOf(byte) = %v", units)
	}
	for i := 1; i < len(units); i++ {
		if units[i-1] >= units[i] {
			t.Errorf("unitsOf not sorted: %v", units)
		}
	}
}

func TestIsStringLikeAndComparable(t *testing.T) {
	if !IsStringLike(PathNameType{}) || !IsStringLike(EntityType{Kind: "x"}) {
		t.Error("PathName/Entity should be string-like")
	}
	if IsStringLike(NumberType{}) {
		t.Error("Number should not be string-like")
	}
	if !IsComparable(MeasureType{Unit: "C"}) || !IsComparable(DateType{}) {
		t.Error("Measure/Date should be comparable")
	}
	if IsComparable(StringType{}) {
		t.Error("String should not be comparable")
	}
}
