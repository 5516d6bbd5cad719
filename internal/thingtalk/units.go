package thingtalk

// Unit handling. ThingTalk measures can be written with any legal unit of a
// dimension and composed additively ("6 feet 3 inches" = 6ft + 3in); the
// runtime normalizes to the dimension's base unit. The neural parser never
// performs this arithmetic (Section 2.1 of the paper).

// unitSpec describes one unit: the dimension it belongs to (identified by the
// dimension's base unit) and the conversion to that base unit. Temperature
// units are affine and carry an offset.
type unitSpec struct {
	base   string
	factor float64
	offset float64
}

var unitTable = map[string]unitSpec{
	// Data size (base: byte).
	"byte": {"byte", 1, 0},
	"KB":   {"byte", 1e3, 0},
	"MB":   {"byte", 1e6, 0},
	"GB":   {"byte", 1e9, 0},
	"TB":   {"byte", 1e12, 0},

	// Duration (base: ms).
	"ms":   {"ms", 1, 0},
	"s":    {"ms", 1e3, 0},
	"min":  {"ms", 60e3, 0},
	"h":    {"ms", 3600e3, 0},
	"day":  {"ms", 86400e3, 0},
	"week": {"ms", 7 * 86400e3, 0},

	// Length (base: m).
	"mm": {"m", 1e-3, 0},
	"cm": {"m", 1e-2, 0},
	"m":  {"m", 1, 0},
	"km": {"m", 1e3, 0},
	"in": {"m", 0.0254, 0},
	"ft": {"m", 0.3048, 0},
	"mi": {"m", 1609.344, 0},

	// Temperature (base: C). Affine conversions.
	"C": {"C", 1, 0},
	"F": {"C", 5.0 / 9.0, -32 * 5.0 / 9.0},
	"K": {"C", 1, -273.15},

	// Mass (base: kg).
	"g":  {"kg", 1e-3, 0},
	"kg": {"kg", 1, 0},
	"lb": {"kg", 0.45359237, 0},
	"oz": {"kg", 0.028349523125, 0},

	// Speed (base: mps).
	"mps":  {"mps", 1, 0},
	"kmph": {"mps", 1.0 / 3.6, 0},
	"mph":  {"mps", 0.44704, 0},

	// Music tempo (base: bpm).
	"bpm": {"bpm", 1, 0},

	// Energy expenditure (base: kcal).
	"kcal": {"kcal", 1, 0},

	// Currency (base: usd). Fixed synthetic rates; the simulator only needs
	// a consistent ordering, not live exchange rates.
	"usd": {"usd", 1, 0},
	"eur": {"usd", 1.1, 0},
	"gbp": {"usd", 1.3, 0},
	"jpy": {"usd", 0.0091, 0},
}

// UnitDimension returns the base unit of u's dimension, and whether u is a
// known unit.
func UnitDimension(u string) (base string, ok bool) {
	spec, ok := unitTable[u]
	if !ok {
		return "", false
	}
	return spec.base, true
}

// BaseUnit returns the base unit of u's dimension, or u itself when u is
// unknown (so that error reporting shows the original spelling).
func BaseUnit(u string) string {
	if spec, ok := unitTable[u]; ok {
		return spec.base
	}
	return u
}

// ConvertUnit converts amount in unit u to the base unit of u's dimension.
func ConvertUnit(amount float64, u string) (float64, bool) {
	spec, ok := unitTable[u]
	if !ok {
		return 0, false
	}
	return amount*spec.factor + spec.offset, true
}
