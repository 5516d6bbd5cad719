// Package grammar compiles the ThingTalk grammar and a skill library's
// function signatures into a token-transition automaton over a concrete
// decoder vocabulary. The automaton exposes, for every decode state, the set
// of legal next tokens — the constrained-decoding mask of "Don't Parse,
// Generate!" specialized to ThingTalk: any token sequence the automaton
// admits to completion parses under thingtalk.ParseTokens and typechecks
// against the library, so a masked decoder cannot emit a malformed program.
//
// The package has three layers:
//
//   - Spec: a distilled, serializable table of function signatures (the part
//     of the library the automaton needs). Snapshots embed it so a parser
//     loaded from disk can mask without access to the original library.
//   - Automaton: Spec compiled against a target vocabulary — every vocabulary
//     token classified once (keyword, selector, parameter, constant, ...),
//     with per-type constant tables and per-function cost bounds.
//   - State: one decode hypothesis's position in the grammar — a stack of
//     parse frames mirroring the recursive-descent parser, carrying the
//     typechecker's output-parameter environments so parameter references,
//     filter atoms and join conditions are masked type-correctly.
package grammar

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/thingtalk"
)

// SpecParam is one declared parameter in distilled form. Type is the
// canonical spelling (thingtalk.Type.String()), which round-trips through
// thingtalk.ParseType.
type SpecParam struct {
	Name string `json:"name"`
	Type string `json:"type"`
	Dir  int    `json:"dir"` // thingtalk.ParamDir
}

// SpecFunction is one library function in distilled form.
type SpecFunction struct {
	Class   string      `json:"class"`
	Name    string      `json:"name"`
	Kind    int         `json:"kind"` // thingtalk.FunctionKind
	Monitor bool        `json:"monitor,omitempty"`
	List    bool        `json:"list,omitempty"`
	Params  []SpecParam `json:"params"`
}

// Spec is the schema table an automaton is compiled from. It is the
// serializable distillation of a thingpedia library: enough to reproduce the
// typechecker's decisions, nothing else.
type Spec struct {
	Functions []SpecFunction `json:"functions"`
}

// NewSpec distills a set of function schemas into a Spec. Functions are
// sorted by selector so the same library always produces byte-identical
// serializations (and therefore a stable checksum).
func NewSpec(fns []*thingtalk.FunctionSchema) *Spec {
	s := &Spec{Functions: make([]SpecFunction, 0, len(fns))}
	for _, f := range fns {
		sf := SpecFunction{
			Class:   f.Class,
			Name:    f.Name,
			Kind:    int(f.Kind),
			Monitor: f.Monitor,
			List:    f.List,
			Params:  make([]SpecParam, 0, len(f.Params)),
		}
		for _, p := range f.Params {
			sf.Params = append(sf.Params, SpecParam{Name: p.Name, Type: p.Type.String(), Dir: int(p.Dir)})
		}
		s.Functions = append(s.Functions, sf)
	}
	sort.Slice(s.Functions, func(i, j int) bool {
		return s.Functions[i].selector() < s.Functions[j].selector()
	})
	return s
}

func (f *SpecFunction) selector() string { return "@" + f.Class + "." + f.Name }

// Marshal serializes the spec deterministically.
func (s *Spec) Marshal() ([]byte, error) { return json.Marshal(s) }

// UnmarshalSpec reconstructs a Spec from Marshal output.
func UnmarshalSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("grammar: decoding spec: %w", err)
	}
	return &s, nil
}

// Checksum returns a hex SHA-256 over the canonical serialization; snapshots
// store it beside the spec so a corrupted or hand-edited spec is detected at
// load time.
func (s *Spec) Checksum() string {
	data, err := s.Marshal()
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
