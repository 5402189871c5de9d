package mcheck

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// The .sched file format: a self-describing, line-oriented serialization
// of a Schedule. It exists so a counterexample survives its process — a
// CI failure uploads the file, and `rascheck -replay` or `rasvm
// -replay-sched` re-executes the exact interleaving anywhere.
//
//	# comment
//	model counter
//	param mech none
//	param workers 2
//	decision preempt 37
//	note found by rascheck -model counter -mode exhaustive
//
// Keys sort deterministically, so Format is canonical: equal schedules
// serialize byte-identically.

// Format renders the schedule canonically.
func (s *Schedule) Format() []byte {
	var b strings.Builder
	b.WriteString("# mcheck schedule\n")
	fmt.Fprintf(&b, "model %s\n", s.Model)
	keys := make([]string, 0, len(s.Params))
	for k := range s.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "param %s %s\n", k, s.Params[k])
	}
	for _, d := range s.Decisions {
		fmt.Fprintf(&b, "decision %s %d\n", d.Act, d.At)
	}
	if s.Note != "" {
		fmt.Fprintf(&b, "note %s\n", s.Note)
	}
	return []byte(b.String())
}

// Parse reads a .sched serialization back into a Schedule.
func Parse(data []byte) (*Schedule, error) {
	s := &Schedule{Params: map[string]string{}}
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, rest, _ := strings.Cut(line, " ")
		switch key {
		case "model":
			s.Model = rest
		case "param":
			k, v, ok := strings.Cut(rest, " ")
			if !ok {
				return nil, fmt.Errorf("mcheck: line %d: param needs a key and a value", ln+1)
			}
			s.Params[k] = v
		case "decision":
			as, ns, ok := strings.Cut(rest, " ")
			if !ok {
				return nil, fmt.Errorf("mcheck: line %d: decision needs an action and an ordinal", ln+1)
			}
			act, err := ParseAction(as)
			if err != nil {
				return nil, fmt.Errorf("mcheck: line %d: %v", ln+1, err)
			}
			at, err := strconv.ParseUint(ns, 10, 64)
			if err != nil || at == 0 {
				return nil, fmt.Errorf("mcheck: line %d: bad ordinal %q", ln+1, ns)
			}
			s.Decisions = append(s.Decisions, Decision{At: at, Act: act})
		case "note":
			s.Note = rest
		default:
			return nil, fmt.Errorf("mcheck: line %d: unknown directive %q", ln+1, key)
		}
	}
	if s.Model == "" {
		return nil, fmt.Errorf("mcheck: schedule has no model line")
	}
	sort.SliceStable(s.Decisions, func(i, j int) bool { return s.Decisions[i].At < s.Decisions[j].At })
	for i := 1; i < len(s.Decisions); i++ {
		if s.Decisions[i].At == s.Decisions[i-1].At {
			return nil, fmt.Errorf("mcheck: two decisions at ordinal %d", s.Decisions[i].At)
		}
	}
	return s, nil
}

// ReadFile parses the .sched file at path.
func ReadFile(path string) (*Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// WriteFile serializes the schedule to path.
func (s *Schedule) WriteFile(path string) error {
	return os.WriteFile(path, s.Format(), 0o644)
}

// ParamString renders the params as the rascheck -params flag value.
func (s *Schedule) ParamString() string {
	keys := make([]string, 0, len(s.Params))
	for k := range s.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+s.Params[k])
	}
	return strings.Join(parts, ",")
}
