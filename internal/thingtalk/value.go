package thingtalk

import (
	"fmt"
	"strconv"
	"strings"
)

// ValueKind discriminates the constant forms of the language.
type ValueKind int

// Value kinds.
const (
	// VString is a free-form word sequence (also used for PathName, URL and
	// Entity values; the parameter's declared type disambiguates).
	VString ValueKind = iota
	// VNumber is a dimensionless number literal.
	VNumber
	// VBool is a boolean literal.
	VBool
	// VMeasure is an additively-composed measure, e.g. 6ft + 3in.
	VMeasure
	// VEnum is an enum member reference, e.g. enum:ascending.
	VEnum
	// VDate is a named date edge (start_of_week, end_of_day, now, ...).
	VDate
	// VTime is a named time of day (morning, noon, evening, midnight).
	VTime
	// VLocation is a named location (location:home, location:work,
	// location:current).
	VLocation
	// VPlaceholder is a normalized argument placeholder produced by the
	// rule-based argument identifier: NUMBER_0, DATE_1, TIME_0, LOCATION_0,
	// CURRENCY_0. Strings are never placeholders; they stay as words so the
	// pointer network can copy them token by token.
	VPlaceholder
	// VVarRef is a reference to an output parameter of an earlier function
	// (parameter passing).
	VVarRef
	// VSlot is an unfilled typed slot emitted by the synthesizer and
	// replaced by the parameter-replacement stage; it never appears in a
	// final dataset.
	VSlot
)

// MeasureTerm is one addend of a measure value. Exactly one of Num or
// Placeholder is meaningful: if Placeholder is non-empty the magnitude is a
// normalized NUMBER_k token.
type MeasureTerm struct {
	Num         float64
	Placeholder string
	Unit        string
}

// Value is a ThingTalk constant or parameter reference.
//
// Value is a small sum type; the Kind field selects which other fields are
// meaningful. Values are immutable by convention: code that rewrites a value
// makes a copy.
type Value struct {
	Kind ValueKind

	// Words holds the tokens of a VString.
	Words []string
	// Num holds the magnitude of a VNumber.
	Num float64
	// Bool holds a VBool.
	Bool bool
	// Measures holds the addends of a VMeasure.
	Measures []MeasureTerm
	// Name holds the payload of VEnum (member name), VDate (edge name),
	// VTime (name), VLocation (name), VPlaceholder (token), VVarRef
	// (output parameter name), and the variable name of a VSlot written as
	// $name in a primitive template.
	Name string
	// SlotType and SlotID identify a VSlot; SlotParam records the input or
	// filter parameter the slot fills, which the parameter-replacement
	// stage uses to pick values from the right corpus.
	SlotType  Type
	SlotID    int
	SlotParam string
}

// Convenience constructors.

// StringValue builds a VString from words.
func StringValue(words ...string) Value { return Value{Kind: VString, Words: words} }

// NumberValue builds a VNumber.
func NumberValue(n float64) Value { return Value{Kind: VNumber, Num: n} }

// BoolValue builds a VBool.
func BoolValue(b bool) Value { return Value{Kind: VBool, Bool: b} }

// MeasureValue builds a single-term VMeasure.
func MeasureValue(n float64, unit string) Value {
	return Value{Kind: VMeasure, Measures: []MeasureTerm{{Num: n, Unit: unit}}}
}

// EnumValue builds a VEnum.
func EnumValue(name string) Value { return Value{Kind: VEnum, Name: name} }

// DateValue builds a VDate with a named edge.
func DateValue(name string) Value { return Value{Kind: VDate, Name: name} }

// TimeValue builds a VTime.
func TimeValue(name string) Value { return Value{Kind: VTime, Name: name} }

// LocationValue builds a VLocation.
func LocationValue(name string) Value { return Value{Kind: VLocation, Name: name} }

// PlaceholderValue builds a VPlaceholder from a normalized token such as
// NUMBER_0.
func PlaceholderValue(token string) Value { return Value{Kind: VPlaceholder, Name: token} }

// VarRefValue builds a VVarRef.
func VarRefValue(param string) Value { return Value{Kind: VVarRef, Name: param} }

// SlotValue builds a VSlot.
func SlotValue(t Type, id int) Value { return Value{Kind: VSlot, SlotType: t, SlotID: id} }

// NamedDates are the date edges the language understands without contextual
// information.
var NamedDates = []string{
	"now", "start_of_day", "end_of_day", "start_of_week", "end_of_week",
	"start_of_month", "end_of_month", "start_of_year", "end_of_year",
}

// NamedTimes are the symbolic times of day.
var NamedTimes = []string{"morning", "noon", "afternoon", "evening", "midnight"}

// NamedLocations are the symbolic locations.
var NamedLocations = []string{"home", "work", "current"}

// IsNamedDate reports whether s is a recognized date edge.
func IsNamedDate(s string) bool { return containsString(NamedDates, s) }

// IsNamedTime reports whether s is a recognized symbolic time.
func IsNamedTime(s string) bool { return containsString(NamedTimes, s) }

// IsNamedLocation reports whether s is a recognized symbolic location.
func IsNamedLocation(s string) bool { return containsString(NamedLocations, s) }

func containsString(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// PlaceholderPrefixes maps the prefix of a normalized placeholder token to
// the type of value it stands for.
var PlaceholderPrefixes = map[string]ValueKind{
	"NUMBER":   VNumber,
	"DATE":     VDate,
	"TIME":     VTime,
	"LOCATION": VLocation,
	"CURRENCY": VNumber,
	"DURATION": VMeasure,
}

// PlaceholderKind returns the value kind a placeholder token stands for, or
// false if the token is not a placeholder (placeholders look like PREFIX_k).
func PlaceholderKind(token string) (ValueKind, bool) {
	i := strings.LastIndexByte(token, '_')
	if i <= 0 || i == len(token)-1 {
		return 0, false
	}
	if _, err := strconv.Atoi(token[i+1:]); err != nil {
		return 0, false
	}
	kind, ok := PlaceholderPrefixes[token[:i]]
	return kind, ok
}

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case VString:
		if len(v.Words) != len(o.Words) {
			return false
		}
		for i := range v.Words {
			if v.Words[i] != o.Words[i] {
				return false
			}
		}
		return true
	case VNumber:
		return v.Num == o.Num
	case VBool:
		return v.Bool == o.Bool
	case VMeasure:
		if len(v.Measures) != len(o.Measures) {
			return false
		}
		for i := range v.Measures {
			if v.Measures[i] != o.Measures[i] {
				return false
			}
		}
		return true
	case VEnum, VDate, VTime, VLocation, VPlaceholder, VVarRef:
		return v.Name == o.Name
	case VSlot:
		if (v.SlotType == nil) != (o.SlotType == nil) {
			return false
		}
		if v.SlotType != nil && !v.SlotType.Equal(o.SlotType) {
			return false
		}
		return v.SlotID == o.SlotID && v.Name == o.Name
	}
	return false
}

// String renders the value in canonical surface syntax. The rendering, split
// on spaces, is exactly the NN token sequence for the value.
func (v Value) String() string { return strings.Join(v.Tokens(), " ") }

// Tokens returns the canonical token sequence for the value.
func (v Value) Tokens() []string {
	switch v.Kind {
	case VString:
		toks := make([]string, 0, len(v.Words)+2)
		toks = append(toks, `"`)
		toks = append(toks, v.Words...)
		toks = append(toks, `"`)
		return toks
	case VNumber:
		return []string{formatNumber(v.Num)}
	case VBool:
		if v.Bool {
			return []string{"true"}
		}
		return []string{"false"}
	case VMeasure:
		var toks []string
		for i, m := range v.Measures {
			if i > 0 {
				toks = append(toks, "+")
			}
			if m.Placeholder != "" {
				toks = append(toks, m.Placeholder)
			} else {
				toks = append(toks, formatNumber(m.Num))
			}
			toks = append(toks, "unit:"+m.Unit)
		}
		return toks
	case VEnum:
		return []string{"enum:" + v.Name}
	case VDate:
		return []string{"date:" + v.Name}
	case VTime:
		return []string{"time:" + v.Name}
	case VLocation:
		return []string{"location:" + v.Name}
	case VPlaceholder:
		return []string{v.Name}
	case VVarRef:
		return []string{"param:" + v.Name}
	case VSlot:
		if v.Name != "" {
			return []string{"$" + v.Name}
		}
		return []string{fmt.Sprintf("__slot_%d", v.SlotID)}
	}
	return []string{"<invalid>"}
}

func formatNumber(n float64) string {
	return strconv.FormatFloat(n, 'g', -1, 64)
}
