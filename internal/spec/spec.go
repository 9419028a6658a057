// Package spec is the shared parameter-spec machinery behind every
// self-describing registry in this codebase: dormancy policies
// (internal/policy), carrier power profiles (internal/power) and synthetic
// user cohorts (internal/workload) all declare their tunable knobs as
// ParamSpecs inside Schemas, resolve caller-supplied Specs against them
// (alias expansion, type coercion, inclusive bounds checks, defaults), and
// share one canonical byte-stable "name(param=value,...)" encoding.
//
// The encoding contract is what makes registries usable as cache-key
// material: two Specs that denote the same configuration — alias vs
// canonical name, omitted vs explicit defaults, "4500ms" vs "4.5s", any
// param-map construction order — encode identically, and any value change
// changes the encoding. The v4 job fingerprint hashes these encodings for
// all three experiment axes.
package spec

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ParamKind is the value type of a registered parameter.
type ParamKind string

// The supported parameter kinds. Durations accept Go duration strings
// ("4.5s") or integer nanoseconds; floats and ints accept JSON numbers or
// their decimal string forms; bools accept JSON booleans or "true"/"false".
const (
	KindDuration ParamKind = "duration"
	KindFloat    ParamKind = "float"
	KindInt      ParamKind = "int"
	KindBool     ParamKind = "bool"
)

// ParamSpec declares one tunable parameter of a schema: its kind, default,
// and inclusive bounds. Default, Min and Max hold a time.Duration, float64,
// int or bool matching Kind; nil bounds are unbounded (bools take none).
type ParamSpec struct {
	Name    string
	Kind    ParamKind
	Default any
	Min     any
	Max     any
	Help    string

	// defstr caches Kind.Format(Default), filled at registration so the
	// label encoding (which compares every value against its default)
	// doesn't re-format defaults on each resolution.
	defstr string
}

// DefaultString returns the canonical string form of Default, cached at
// registration; unregistered ParamSpec values format on demand.
func (p ParamSpec) DefaultString() string {
	if p.defstr != "" {
		return p.defstr
	}
	return p.Kind.Format(p.Default)
}

// Validate checks the declaration itself (not a value): known kind,
// well-typed default and bounds, default within bounds.
func (p ParamSpec) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("parameter with empty name")
	}
	switch p.Kind {
	case KindDuration, KindFloat, KindInt:
	case KindBool:
		if p.Min != nil || p.Max != nil {
			return fmt.Errorf("parameter %q: bool parameters take no bounds", p.Name)
		}
	default:
		return fmt.Errorf("parameter %q has unknown kind %q", p.Name, p.Kind)
	}
	if p.Default == nil {
		return fmt.Errorf("parameter %q has no default", p.Name)
	}
	for _, v := range []any{p.Default, p.Min, p.Max} {
		if v == nil {
			continue
		}
		if err := p.Kind.check(v); err != nil {
			return fmt.Errorf("parameter %q: %w", p.Name, err)
		}
	}
	if err := p.InBounds(p.Default); err != nil {
		return fmt.Errorf("parameter %q default: %w", p.Name, err)
	}
	return nil
}

// check verifies a typed value matches the kind.
func (k ParamKind) check(v any) error {
	switch k {
	case KindDuration:
		if _, ok := v.(time.Duration); !ok {
			return fmt.Errorf("%v (%T) is not a duration", v, v)
		}
	case KindFloat:
		if _, ok := v.(float64); !ok {
			return fmt.Errorf("%v (%T) is not a float", v, v)
		}
	case KindInt:
		if _, ok := v.(int); !ok {
			return fmt.Errorf("%v (%T) is not an int", v, v)
		}
	case KindBool:
		if _, ok := v.(bool); !ok {
			return fmt.Errorf("%v (%T) is not a bool", v, v)
		}
	}
	return nil
}

// Format renders a typed value in its canonical string form: the one the
// byte-stable encoding, the discovery APIs, and error messages all share.
func (k ParamKind) Format(v any) string {
	switch k {
	case KindDuration:
		return v.(time.Duration).String()
	case KindFloat:
		return strconv.FormatFloat(v.(float64), 'g', -1, 64)
	case KindInt:
		return strconv.Itoa(v.(int))
	case KindBool:
		return strconv.FormatBool(v.(bool))
	}
	return fmt.Sprint(v)
}

// Coerce converts a caller-supplied value (typed Go value, JSON-decoded
// number or boolean, or string) into the kind's canonical Go type.
func (k ParamKind) Coerce(v any) (any, error) {
	switch k {
	case KindDuration:
		switch x := v.(type) {
		case time.Duration:
			return x, nil
		case string:
			d, err := time.ParseDuration(x)
			if err != nil {
				return nil, fmt.Errorf("bad duration %q: %w", x, err)
			}
			return d, nil
		case float64: // JSON number: integer nanoseconds
			if x != float64(int64(x)) {
				return nil, fmt.Errorf("duration %v must be whole nanoseconds or a string like \"4.5s\"", x)
			}
			return time.Duration(int64(x)), nil
		case int:
			return time.Duration(x), nil
		case int64:
			return time.Duration(x), nil
		}
	case KindFloat:
		// finite rejects NaN and ±Inf: NaN compares false against every
		// bound (so it would sail through InBounds into builders that
		// panic on it), and neither is a meaningful knob value.
		finite := func(f float64) (any, error) {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, fmt.Errorf("%v is not a finite number", f)
			}
			return f, nil
		}
		switch x := v.(type) {
		case float64:
			return finite(x)
		case int:
			return float64(x), nil
		case int64:
			return float64(x), nil
		case string:
			f, err := strconv.ParseFloat(x, 64)
			if err != nil {
				return nil, fmt.Errorf("bad float %q", x)
			}
			return finite(f)
		}
	case KindInt:
		switch x := v.(type) {
		case int:
			return x, nil
		case int64:
			return int(x), nil
		case float64:
			if x != float64(int64(x)) {
				return nil, fmt.Errorf("%v is not an integer", x)
			}
			return int(int64(x)), nil
		case string:
			n, err := strconv.Atoi(x)
			if err != nil {
				return nil, fmt.Errorf("bad int %q", x)
			}
			return n, nil
		}
	case KindBool:
		switch x := v.(type) {
		case bool:
			return x, nil
		case string:
			b, err := strconv.ParseBool(x)
			if err != nil {
				return nil, fmt.Errorf("bad bool %q", x)
			}
			return b, nil
		}
	}
	return nil, fmt.Errorf("cannot use %v (%T) as %s", v, v, k)
}

// InBounds checks a typed value against the inclusive [Min, Max] range.
func (p ParamSpec) InBounds(v any) error {
	less := func(a, b any) bool {
		switch p.Kind {
		case KindDuration:
			return a.(time.Duration) < b.(time.Duration)
		case KindFloat:
			return a.(float64) < b.(float64)
		case KindBool:
			return false // bools take no bounds
		default:
			return a.(int) < b.(int)
		}
	}
	if p.Min != nil && less(v, p.Min) {
		return fmt.Errorf("%s below minimum %s", p.Kind.Format(v), p.Kind.Format(p.Min))
	}
	if p.Max != nil && less(p.Max, v) {
		return fmt.Errorf("%s above maximum %s", p.Kind.Format(v), p.Kind.Format(p.Max))
	}
	return nil
}

// Spec selects a registered schema by name and overrides some of its
// parameters. Param values may be typed Go values, JSON-decoded values, or
// canonical strings; the registry coerces and bounds-checks them against
// the schema when the spec is resolved. The zero Spec is invalid (no name).
type Spec struct {
	Name   string         `json:"name"`
	Params map[string]any `json:"params,omitempty"`
}

// Params is a fully resolved parameter set: every schema parameter
// present, values in their canonical Go types. Builders read it with the
// typed accessors, which panic on schema mismatch — impossible for Params
// produced by Registry.Resolve.
type Params map[string]any

// Duration returns a duration parameter.
func (p Params) Duration(name string) time.Duration { return p[name].(time.Duration) }

// Float returns a float parameter.
func (p Params) Float(name string) float64 { return p[name].(float64) }

// Int returns an int parameter.
func (p Params) Int(name string) int { return p[name].(int) }

// Bool returns a bool parameter.
func (p Params) Bool(name string) bool { return p[name].(bool) }

// Parse parses the CLI spec syntax: a bare schema (or alias) name, or
// "name(k=v,k2=v2)" with values in their canonical string forms, e.g.
// "fixedtail(wait=2s)" or "verizon-lte(t1=5s)". Whitespace around names,
// keys and values is ignored. The result still needs registry resolution
// (alias expansion, coercion, bounds).
func Parse(s string) (Spec, error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open < 0 {
		if s == "" {
			return Spec{}, fmt.Errorf("empty spec")
		}
		return Spec{Name: s}, nil
	}
	if !strings.HasSuffix(s, ")") {
		return Spec{}, fmt.Errorf("bad spec %q: missing closing parenthesis", s)
	}
	name := strings.TrimSpace(s[:open])
	if name == "" {
		return Spec{}, fmt.Errorf("bad spec %q: missing name", s)
	}
	spec := Spec{Name: name}
	body := strings.TrimSpace(s[open+1 : len(s)-1])
	if body == "" {
		return spec, nil
	}
	spec.Params = make(map[string]any)
	for _, kv := range strings.Split(body, ",") {
		k, v, ok := strings.Cut(kv, "=")
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		if !ok || k == "" || v == "" {
			return Spec{}, fmt.Errorf("bad spec %q: parameter %q is not key=value", s, kv)
		}
		if _, dup := spec.Params[k]; dup {
			return Spec{}, fmt.Errorf("bad spec %q: duplicate parameter %q", s, k)
		}
		spec.Params[k] = v
	}
	return spec, nil
}

// SortedNames returns map keys sorted, for deterministic error messages.
func SortedNames[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
