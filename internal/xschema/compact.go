package xschema

import (
	"fmt"
	"strings"
)

// ParseCompact parses the compact schema language, the repository's
// stand-in for registered XML Schemas and DTDs (§3.2).
//
// One declaration per line:
//
//	dept      := dname, loc, employees     # sequence model group
//	employees := emp*                      # cardinalities: ? * +
//	emp       := @id:int?, empno:int, ename, sal:int
//	payload   := xml | json | csv          # choice model group
//	bundle    := meta & data               # all model group
//	note      := #text                     # explicit text leaf
//	count     := #int                      # typed text leaf
//	marker    := #empty                    # empty element
//
// The first declared element is the document root. Undeclared referenced
// names become string text leaves; a reference may carry a type
// (`sal:int`), which types that leaf. '#' starts a comment.
func ParseCompact(src string) (*Schema, error) {
	s := NewSchema()
	type pendingDecl struct {
		name string
		rhs  string
		line int
	}
	var decls []pendingDecl
	seen := map[string]int{}

	for lineno, raw := range strings.Split(src, "\n") {
		line := raw
		// '#' starts a comment unless it begins a content token (#text,
		// #int, #float, #empty) — those always follow ":=" or ", ".
		if i := commentStart(line); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		name, rhs, ok := strings.Cut(line, ":=")
		if !ok {
			return nil, fmt.Errorf("xschema: line %d: expected 'name := content', got %q", lineno+1, line)
		}
		name = strings.TrimSpace(name)
		if name == "" || !validName(name) {
			return nil, fmt.Errorf("xschema: line %d: bad element name %q", lineno+1, name)
		}
		if prev, dup := seen[name]; dup {
			return nil, fmt.Errorf("xschema: line %d: element %q already declared on line %d", lineno+1, name, prev)
		}
		seen[name] = lineno + 1
		decls = append(decls, pendingDecl{name: name, rhs: rhs, line: lineno + 1})
	}
	if len(decls) == 0 {
		return nil, fmt.Errorf("xschema: empty schema")
	}

	// First pass: declare all LHS names so order doesn't matter.
	for _, d := range decls {
		s.Declare(d.name)
	}
	s.Root = s.Elements[decls[0].name]

	// Second pass: parse content models.
	var typed []typedRef
	for _, d := range decls {
		if err := parseContent(s, s.Elements[d.name], d.rhs, d.line, &typed); err != nil {
			return nil, err
		}
	}
	// A type annotation on a reference (sal:int) is only legal when the
	// referenced element stayed a text leaf.
	for _, tr := range typed {
		if d := s.Elements[tr.name]; d != nil && d.Group != GroupText {
			return nil, fmt.Errorf("xschema: line %d: cannot type non-leaf element %q", tr.line, tr.name)
		}
	}
	return s, nil
}

// typedRef records a typed element reference for post-parse validation.
type typedRef struct {
	name string
	line int
}

// commentStart finds the index of a comment '#', skipping content tokens
// like #text/#int/#float/#empty.
func commentStart(line string) int {
	for i := 0; i < len(line); i++ {
		if line[i] != '#' {
			continue
		}
		rest := line[i:]
		if strings.HasPrefix(rest, "#text") || strings.HasPrefix(rest, "#int") ||
			strings.HasPrefix(rest, "#float") || strings.HasPrefix(rest, "#string") ||
			strings.HasPrefix(rest, "#empty") {
			continue
		}
		return i
	}
	return -1
}

func validName(s string) bool {
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case (r >= '0' && r <= '9' || r == '-' || r == '.') && i > 0:
		default:
			return false
		}
	}
	return len(s) > 0
}

func parseContent(s *Schema, decl *ElemDecl, rhs string, line int, typed *[]typedRef) error {
	rhs = strings.TrimSpace(rhs)
	if rhs == "" {
		return fmt.Errorf("xschema: line %d: empty content model for %q", line, decl.Name)
	}

	// Determine the model group from the separators present.
	hasChoice := strings.Contains(rhs, "|")
	hasAll := strings.Contains(rhs, "&")
	if hasChoice && hasAll {
		return fmt.Errorf("xschema: line %d: cannot mix '|' and '&' in one content model", line)
	}
	sep := ","
	group := GroupSeq
	switch {
	case hasChoice:
		sep, group = "|", GroupChoice
	case hasAll:
		sep, group = "&", GroupAll
	}

	items := strings.Split(rhs, sep)
	// Attributes may be comma-separated before a choice/all group; re-split
	// leading @-items when using | or &.
	var tokens []string
	for _, it := range items {
		it = strings.TrimSpace(it)
		if it == "" {
			return fmt.Errorf("xschema: line %d: empty item in content model for %q", line, decl.Name)
		}
		if sep != "," && strings.Contains(it, ",") {
			// Attributes may be comma-separated ahead of the first group
			// member: "@a, @b, x | y".
			for _, sub := range strings.Split(it, ",") {
				if sub = strings.TrimSpace(sub); sub != "" {
					tokens = append(tokens, sub)
				}
			}
			continue
		}
		tokens = append(tokens, it)
	}

	decl.Group = group
	decl.Children = nil
	sawContent := false
	for _, tok := range tokens {
		switch {
		case strings.HasPrefix(tok, "@"):
			a, err := parseAttrToken(tok, line)
			if err != nil {
				return err
			}
			decl.Attrs = append(decl.Attrs, a)
		case tok == "#text" || tok == "#string" || tok == "#int" || tok == "#float":
			if sawContent {
				return fmt.Errorf("xschema: line %d: %s must be the only content of %q", line, tok, decl.Name)
			}
			decl.Group = GroupText
			t, _ := parseType(strings.TrimPrefix(strings.TrimPrefix(tok, "#"), "#"))
			if tok == "#text" {
				t = TypeString
			}
			decl.Type = t
			sawContent = true
		case tok == "#empty":
			decl.Group = GroupEmpty
			sawContent = true
		default:
			p, err := parseParticleToken(s, tok, line, typed)
			if err != nil {
				return err
			}
			decl.Children = append(decl.Children, p)
			sawContent = true
		}
	}
	if len(decl.Children) == 0 && decl.Group != GroupText && decl.Group != GroupEmpty {
		return fmt.Errorf("xschema: line %d: %q has no content", line, decl.Name)
	}
	return nil
}

func parseAttrToken(tok string, line int) (*AttrDecl, error) {
	body := strings.TrimPrefix(tok, "@")
	optional := false
	if strings.HasSuffix(body, "?") {
		optional = true
		body = strings.TrimSuffix(body, "?")
	}
	name, typ, _ := strings.Cut(body, ":")
	if !validName(name) {
		return nil, fmt.Errorf("xschema: line %d: bad attribute name %q", line, name)
	}
	t, err := parseType(typ)
	if err != nil {
		return nil, fmt.Errorf("xschema: line %d: %v", line, err)
	}
	return &AttrDecl{Name: name, Type: t, Optional: optional}, nil
}

func parseParticleToken(s *Schema, tok string, line int, typed *[]typedRef) (*Particle, error) {
	min, max := 1, 1
	switch {
	case strings.HasSuffix(tok, "?"):
		min, max = 0, 1
		tok = strings.TrimSuffix(tok, "?")
	case strings.HasSuffix(tok, "*"):
		min, max = 0, Unbounded
		tok = strings.TrimSuffix(tok, "*")
	case strings.HasSuffix(tok, "+"):
		min, max = 1, Unbounded
		tok = strings.TrimSuffix(tok, "+")
	}
	name, typ, hasType := strings.Cut(tok, ":")
	name = strings.TrimSpace(name)
	if !validName(name) {
		return nil, fmt.Errorf("xschema: line %d: bad element reference %q", line, tok)
	}
	child := s.Declare(name)
	if hasType {
		t, err := parseType(strings.TrimSpace(typ))
		if err != nil {
			return nil, fmt.Errorf("xschema: line %d: %v", line, err)
		}
		child.Type = t
		*typed = append(*typed, typedRef{name: name, line: line})
	}
	return &Particle{Child: child, Min: min, Max: max}, nil
}
