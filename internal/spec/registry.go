package spec

import (
	"fmt"
	"sort"
	"strings"
)

// Schema is one registered entry: its canonical name, a one-line summary,
// its parameter declarations, and an arbitrary domain payload (policy
// builders, a carrier's radio tech, a cohort's mix builder) carried
// opaquely in Meta. Domain registries wrap Registry and type-assert Meta.
type Schema struct {
	Name    string
	Summary string
	Params  []ParamSpec
	Meta    any
}

// Param returns the declaration of a parameter name.
func (s *Schema) Param(name string) (ParamSpec, bool) {
	for _, p := range s.Params {
		if p.Name == name {
			return p, true
		}
	}
	return ParamSpec{}, false
}

// Has reports whether the schema declares a parameter of that name.
func (s *Schema) Has(name string) bool { _, ok := s.Param(name); return ok }

// validate rejects malformed schemas at registration time, which is what
// guarantees every registered entry is fully self-describing.
func (s *Schema) validate(noun string) error {
	if s.Name == "" {
		return fmt.Errorf("spec: %s schema with empty name", noun)
	}
	if strings.ContainsAny(s.Name, "(),=| \t\n") {
		return fmt.Errorf("spec: %s schema name %q contains reserved characters", noun, s.Name)
	}
	seen := map[string]bool{}
	for i, p := range s.Params {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("spec: %s schema %q: %w", noun, s.Name, err)
		}
		if seen[p.Name] {
			return fmt.Errorf("spec: %s schema %q declares parameter %q twice", noun, s.Name, p.Name)
		}
		seen[p.Name] = true
		s.Params[i].defstr = p.Kind.Format(p.Default)
	}
	return nil
}

// Registry holds schemas by name plus legacy aliases that expand to
// parameterized specs. It is the single authority on which entries exist
// and what their knobs are — every surface (CLI flags, job specs, the /v1
// HTTP API) resolves names through one. The noun ("demote policy",
// "profile", "cohort") labels error messages.
type Registry struct {
	noun    string
	schemas map[string]*Schema
	aliases map[string]Spec
	// check, when non-nil, runs after Register's structural validation so
	// domain registries can reject schemas whose Meta is malformed.
	check func(*Schema) error
}

// NewRegistry returns an empty registry whose error messages call its
// entries noun (e.g. "profile"). check, when non-nil, vets each schema's
// domain payload at Register time.
func NewRegistry(noun string, check func(*Schema) error) *Registry {
	return &Registry{
		noun:    noun,
		schemas: map[string]*Schema{},
		aliases: map[string]Spec{},
		check:   check,
	}
}

// Noun returns the registry's entry noun.
func (r *Registry) Noun() string { return r.noun }

// Register adds a schema, rejecting malformed or duplicate ones.
func (r *Registry) Register(s *Schema) error {
	if err := s.validate(r.noun); err != nil {
		return err
	}
	if r.check != nil {
		if err := r.check(s); err != nil {
			return err
		}
	}
	if _, dup := r.schemas[s.Name]; dup {
		return fmt.Errorf("spec: %s schema %q already registered", r.noun, s.Name)
	}
	if _, dup := r.aliases[s.Name]; dup {
		return fmt.Errorf("spec: %s name %q already taken by an alias", r.noun, s.Name)
	}
	r.schemas[s.Name] = s
	return nil
}

// Alias maps a legacy flat name to a spec, which must itself fully
// resolve — name, parameter coercion and bounds — so a broken alias can
// never register and poison later lookups. Unlike canonical names,
// aliases may contain spaces ("Verizon 3G"); the encoding-reserved
// characters stay forbidden.
func (r *Registry) Alias(name string, spec Spec) error {
	if name == "" {
		return fmt.Errorf("spec: empty %s alias", r.noun)
	}
	if strings.ContainsAny(name, "(),=|\t\n") {
		return fmt.Errorf("spec: %s alias %q contains reserved characters", r.noun, name)
	}
	if _, dup := r.schemas[name]; dup {
		return fmt.Errorf("spec: alias %q shadows a registered %s schema", name, r.noun)
	}
	if _, dup := r.aliases[name]; dup {
		return fmt.Errorf("spec: %s alias %q already registered", r.noun, name)
	}
	if _, _, err := r.Resolve(spec); err != nil {
		return fmt.Errorf("spec: %s alias %q: %w", r.noun, name, err)
	}
	r.aliases[name] = spec
	return nil
}

// Lookup returns the schema registered under a canonical name (aliases do
// not resolve here; use Resolve for full name resolution).
func (r *Registry) Lookup(name string) (*Schema, bool) {
	s, ok := r.schemas[name]
	return s, ok
}

// Schemas lists the registered schemas sorted by name.
func (r *Registry) Schemas() []*Schema {
	out := make([]*Schema, 0, len(r.schemas))
	for _, name := range SortedNames(r.schemas) {
		out = append(out, r.schemas[name])
	}
	return out
}

// Aliases lists the alias names sorted.
func (r *Registry) Aliases() []string { return SortedNames(r.aliases) }

// AliasTarget returns the spec an alias expands to.
func (r *Registry) AliasTarget(name string) (Spec, bool) {
	s, ok := r.aliases[name]
	return s, ok
}

// Names lists every accepted name — canonical schema names and aliases —
// sorted.
func (r *Registry) Names() []string {
	names := append(SortedNames(r.schemas), SortedNames(r.aliases)...)
	sort.Strings(names)
	return names
}

// resolveSchema expands an alias (layering the caller's param overrides on
// top of the alias's) and returns the schema plus the effective spec.
func (r *Registry) resolveSchema(spec Spec) (*Schema, Spec, error) {
	if alias, ok := r.aliases[spec.Name]; ok {
		merged := Spec{Name: alias.Name}
		if len(alias.Params) > 0 || len(spec.Params) > 0 {
			merged.Params = make(map[string]any, len(alias.Params)+len(spec.Params))
			//rrclint:ordered map-to-map copy; the overlay result is a map, no iteration order reaches bytes
			for k, v := range alias.Params {
				merged.Params[k] = v
			}
			//rrclint:ordered map-to-map overlay onto distinct destination keys; result content is order-independent
			for k, v := range spec.Params {
				merged.Params[k] = v
			}
		}
		spec = merged
	}
	schema, ok := r.schemas[spec.Name]
	if !ok {
		return nil, Spec{}, fmt.Errorf("unknown %s %q (valid: %s)",
			r.noun, spec.Name, strings.Join(r.Names(), ", "))
	}
	return schema, spec, nil
}

// Resolve expands aliases and resolves a spec's parameters against the
// schema: unknown parameters are rejected, values coerced to their
// canonical types and bounds-checked, and omitted parameters filled from
// defaults. The returned Params is complete — builders never see a
// missing key.
func (r *Registry) Resolve(spec Spec) (*Schema, Params, error) {
	schema, spec, err := r.resolveSchema(spec)
	if err != nil {
		return nil, nil, err
	}
	resolved := make(Params, len(schema.Params))
	for _, ps := range schema.Params {
		resolved[ps.Name] = ps.Default
	}
	// Sorted iteration so that, with several bad parameters, WHICH error a
	// caller sees is deterministic: validation errors are rendered into job
	// responses, so even the failure bytes must not depend on map order.
	// (Found by detrange.)
	names := make([]string, 0, len(spec.Params))
	for k := range spec.Params {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, name := range names {
		raw := spec.Params[name]
		ps, ok := schema.Param(name)
		if !ok {
			return nil, nil, fmt.Errorf("%s %q has no parameter %q (has: %s)",
				r.noun, schema.Name, name, strings.Join(ParamNames(schema.Params), ", "))
		}
		v, err := ps.Kind.Coerce(raw)
		if err != nil {
			return nil, nil, fmt.Errorf("%s %q parameter %q: %w", r.noun, schema.Name, name, err)
		}
		if err := ps.InBounds(v); err != nil {
			return nil, nil, fmt.Errorf("%s %q parameter %q: %w", r.noun, schema.Name, name, err)
		}
		resolved[ps.Name] = v
	}
	return schema, resolved, nil
}

// Resolution bundles everything one Resolve pass derives from a spec: the
// schema, the fully resolved parameters, and both string encodings, the
// only encoder of either.
//
// Canonical is the byte-stable encoding: the canonical schema name
// followed by every parameter — defaults resolved — in schema declaration
// order, values in canonical string form. Two specs that denote the same
// configuration (alias vs canonical name, omitted vs explicit defaults,
// "4500ms" vs "4.5s", any param-map ordering) encode identically, and any
// parameter value change changes the encoding. The job fingerprint (v4)
// hashes these encodings for every axis.
//
// Label is the human-readable short form: the canonical name plus only
// the non-default parameters. Sweep summaries and grid cells key axis
// values by these, so "verizon-lte(t1=5s)" and plain "verizon-lte" stay
// distinct and readable.
type Resolution struct {
	Schema    *Schema
	Params    Params
	Canonical string
	Label     string
}

// Resolution resolves a spec once and returns the full bundle. The two
// encodings are built in a single pass: the label is the canonical
// filtered to non-default parameters, so each value formats once.
func (r *Registry) Resolution(spec Spec) (Resolution, error) {
	schema, resolved, err := r.Resolve(spec)
	if err != nil {
		return Resolution{}, err
	}
	var canon, label strings.Builder
	canon.Grow(64)
	canon.WriteString(schema.Name)
	for _, ps := range schema.Params {
		formatted := ps.Kind.Format(resolved[ps.Name])
		encodePart(&canon, len(schema.Name), ps.Name, formatted)
		if formatted != ps.DefaultString() {
			if label.Len() == 0 {
				label.Grow(64)
				label.WriteString(schema.Name)
			}
			encodePart(&label, len(schema.Name), ps.Name, formatted)
		}
	}
	res := Resolution{Schema: schema, Params: resolved}
	res.Canonical = closeParams(&canon, len(schema.Name))
	if label.Len() == 0 {
		res.Label = schema.Name
	} else {
		res.Label = closeParams(&label, len(schema.Name))
	}
	return res, nil
}

// encodePart appends one "name=value" element to a builder holding the
// schema name (of length base) plus any earlier parts.
func encodePart(sb *strings.Builder, base int, name, formatted string) {
	if sb.Len() == base {
		sb.WriteByte('(')
	} else {
		sb.WriteByte(',')
	}
	sb.WriteString(name)
	sb.WriteByte('=')
	sb.WriteString(formatted)
}

// closeParams closes the parameter list opened by encodePart, or returns
// the bare schema name when no part was appended.
func closeParams(sb *strings.Builder, base int) string {
	if sb.Len() > base {
		sb.WriteByte(')')
	}
	return sb.String()
}

// ParamInfo is the serializable view of a ParamSpec, values in canonical
// string form (the same forms Resolution.Canonical uses).
type ParamInfo struct {
	Name    string    `json:"name"`
	Kind    ParamKind `json:"kind"`
	Default string    `json:"default"`
	Min     string    `json:"min,omitempty"`
	Max     string    `json:"max,omitempty"`
	Help    string    `json:"help,omitempty"`
}

// InfoFor converts a ParamSpec into its serializable view.
func InfoFor(p ParamSpec) ParamInfo {
	pi := ParamInfo{Name: p.Name, Kind: p.Kind, Default: p.Kind.Format(p.Default), Help: p.Help}
	if p.Min != nil {
		pi.Min = p.Kind.Format(p.Min)
	}
	if p.Max != nil {
		pi.Max = p.Kind.Format(p.Max)
	}
	return pi
}

// SchemaInfo is the serializable view of a Schema plus its aliases — the
// payload shape of the /v1 discovery endpoints.
type SchemaInfo struct {
	Name    string      `json:"name"`
	Summary string      `json:"summary,omitempty"`
	Params  []ParamInfo `json:"params"`
	Aliases []string    `json:"aliases,omitempty"`
}

// Describe returns the serializable view of the registry's schemas, sorted
// by name, each carrying the alias names that expand to it.
func (r *Registry) Describe() []SchemaInfo {
	aliasOf := map[string][]string{}
	for _, name := range r.Aliases() {
		target := r.aliases[name].Name
		aliasOf[target] = append(aliasOf[target], name)
	}
	out := make([]SchemaInfo, 0, len(r.schemas))
	for _, s := range r.Schemas() {
		info := SchemaInfo{
			Name: s.Name, Summary: s.Summary,
			Aliases: aliasOf[s.Name],
			Params:  make([]ParamInfo, 0, len(s.Params)),
		}
		for _, p := range s.Params {
			info.Params = append(info.Params, InfoFor(p))
		}
		out = append(out, info)
	}
	return out
}

// Usage renders the registry as an indented reference block for CLI error
// messages: one line per schema with its parameter grid, then the aliases.
func (r *Registry) Usage() string {
	var sb strings.Builder
	for _, s := range r.Schemas() {
		fmt.Fprintf(&sb, "  %-12s %s\n", s.Name, s.Summary)
		for _, p := range s.Params {
			bounds := ""
			if p.Min != nil || p.Max != nil {
				lo, hi := "-inf", "+inf"
				if p.Min != nil {
					lo = p.Kind.Format(p.Min)
				}
				if p.Max != nil {
					hi = p.Kind.Format(p.Max)
				}
				bounds = fmt.Sprintf(" in [%s, %s]", lo, hi)
			}
			fmt.Fprintf(&sb, "    %s: %s (default %s%s) %s\n",
				p.Name, p.Kind, p.Kind.Format(p.Default), bounds, p.Help)
		}
	}
	for _, name := range r.Aliases() {
		target, _ := r.Resolution(Spec{Name: name})
		fmt.Fprintf(&sb, "  %-12s alias for %s\n", name, target.Canonical)
	}
	return sb.String()
}

// ParamNames lists the declared parameter names in declaration order.
func ParamNames(params []ParamSpec) []string {
	names := make([]string, len(params))
	for i, p := range params {
		names[i] = p.Name
	}
	return names
}
