package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Scenario files are YAML or JSON. The YAML loader is a small hand-written
// parser (the repository carries no dependencies) covering the subset the
// scenario schema needs: nested maps and lists by indentation, "- " list
// items with inline first keys, scalars (strings, numbers, booleans,
// quoted strings), and "#" comments. Anchors, multi-line scalars, and flow
// collections are not supported.
//
//	name: regional-outage
//	description: correlated failure of the Salt Lake / Seattle region
//	damping: false
//	horizon: 400
//	events:
//	  - at: 10
//	    kind: regional-fail
//	    site: slc
//	    radius: 12
//	  - at: 190
//	    kind: regional-recover
//	    site: slc
//	    radius: 12

// LoadFile reads a scenario from a YAML or JSON file.
func LoadFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// Parse decodes a scenario from YAML or JSON bytes (JSON when the first
// non-space byte is '{'). Both syntaxes end in the same strict encoding/json
// decode over the tagged structs — YAML by re-marshalling the subset
// parser's tree — so the accepted keys are exactly the structs' JSON tags.
func Parse(data []byte) (*Scenario, error) {
	if !bytes.HasPrefix(bytes.TrimLeft(data, " \t\r\n"), []byte("{")) {
		tree, err := parseYAML(string(data))
		if err != nil {
			return nil, err
		}
		if data, err = json.Marshal(tree); err != nil {
			return nil, fmt.Errorf("scenario file: %w", err)
		}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	sc := &Scenario{}
	if err := dec.Decode(sc); err != nil {
		return nil, fmt.Errorf("scenario file: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("scenario file: trailing data after the scenario document")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// --- YAML subset parser -----------------------------------------------------

type yamlLine struct {
	no     int // 1-based source line
	indent int
	text   string
}

type yamlParser struct {
	lines []yamlLine
	pos   int
}

func parseYAML(src string) (any, error) {
	p := &yamlParser{}
	for i, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || trimmed == "---" {
			continue
		}
		if strings.ContainsRune(line, '\t') {
			return nil, fmt.Errorf("yaml line %d: tabs are not allowed for indentation", i+1)
		}
		indent := len(line) - len(strings.TrimLeft(line, " "))
		p.lines = append(p.lines, yamlLine{no: i + 1, indent: indent, text: trimmed})
	}
	if len(p.lines) == 0 {
		return nil, fmt.Errorf("yaml: empty document")
	}
	v, err := p.parseBlock(p.lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.lines) {
		l := p.lines[p.pos]
		return nil, fmt.Errorf("yaml line %d: unexpected indentation", l.no)
	}
	return v, nil
}

// stripComment removes a trailing "#"-comment, respecting quoted strings.
func stripComment(line string) string {
	inSingle, inDouble := false, false
	for i, r := range line {
		switch r {
		case '\'':
			if !inDouble {
				inSingle = !inSingle
			}
		case '"':
			if !inSingle {
				inDouble = !inDouble
			}
		case '#':
			if !inSingle && !inDouble && (i == 0 || line[i-1] == ' ') {
				return line[:i]
			}
		}
	}
	return line
}

// parseBlock parses the run of lines at exactly the given indent as one
// value: a sequence if they start with "- ", a mapping otherwise.
func (p *yamlParser) parseBlock(indent int) (any, error) {
	if p.pos >= len(p.lines) {
		return nil, fmt.Errorf("yaml: unexpected end of document")
	}
	if strings.HasPrefix(p.lines[p.pos].text, "- ") || p.lines[p.pos].text == "-" {
		return p.parseSequence(indent)
	}
	return p.parseMapping(indent)
}

func (p *yamlParser) parseSequence(indent int) (any, error) {
	var out []any
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent != indent || (l.text != "-" && !strings.HasPrefix(l.text, "- ")) {
			break
		}
		rest := strings.TrimSpace(strings.TrimPrefix(l.text, "-"))
		if rest == "" {
			// "-" alone: the item is the deeper-indented block below.
			p.pos++
			if p.pos >= len(p.lines) || p.lines[p.pos].indent <= indent {
				return nil, fmt.Errorf("yaml line %d: empty sequence item", l.no)
			}
			item, err := p.parseBlock(p.lines[p.pos].indent)
			if err != nil {
				return nil, err
			}
			out = append(out, item)
			continue
		}
		if key, val, isMap := splitKey(rest); isMap {
			// Inline first key of a mapping item: "- at: 10". Subsequent
			// keys sit at the indent of the inline key (indent + 2).
			m := map[string]any{}
			p.pos++
			if err := p.mapEntry(m, key, val, indent+2, l.no); err != nil {
				return nil, err
			}
			more, err := p.continueMapping(m, indent+2)
			if err != nil {
				return nil, err
			}
			out = append(out, more)
			continue
		}
		out = append(out, scalar(rest))
		p.pos++
	}
	return out, nil
}

func (p *yamlParser) parseMapping(indent int) (any, error) {
	m := map[string]any{}
	return p.continueMapping(m, indent)
}

// continueMapping consumes "key: value" lines at the given indent into m.
func (p *yamlParser) continueMapping(m map[string]any, indent int) (map[string]any, error) {
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent != indent || strings.HasPrefix(l.text, "- ") || l.text == "-" {
			break
		}
		key, val, ok := splitKey(l.text)
		if !ok {
			return nil, fmt.Errorf("yaml line %d: expected \"key: value\", got %q", l.no, l.text)
		}
		if _, dup := m[key]; dup {
			return nil, fmt.Errorf("yaml line %d: duplicate key %q", l.no, key)
		}
		p.pos++
		if err := p.mapEntry(m, key, val, indent, l.no); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// mapEntry stores one parsed "key: value" into m, descending into a nested
// block when the value is empty. indent is the key's own indentation.
func (p *yamlParser) mapEntry(m map[string]any, key, val string, indent, lineNo int) error {
	if val != "" {
		m[key] = scalar(val)
		return nil
	}
	// Empty value: nested block (deeper indent), or sequence at the same
	// indent (YAML allows "- " items aligned with their key), or null.
	if p.pos < len(p.lines) {
		next := p.lines[p.pos]
		isSeq := next.text == "-" || strings.HasPrefix(next.text, "- ")
		if next.indent > indent || (next.indent == indent && isSeq) {
			v, err := p.parseBlock(next.indent)
			if err != nil {
				return err
			}
			m[key] = v
			return nil
		}
	}
	m[key] = nil
	return nil
}

// splitKey splits "key: value" ("key:" yields an empty value). Returns
// ok=false if the text is not a mapping entry.
func splitKey(text string) (key, val string, ok bool) {
	i := strings.Index(text, ":")
	if i < 0 {
		return "", "", false
	}
	key = strings.TrimSpace(text[:i])
	rest := text[i+1:]
	if key == "" || (rest != "" && !strings.HasPrefix(rest, " ")) {
		return "", "", false
	}
	return key, strings.TrimSpace(rest), true
}

// scalar converts a YAML scalar to bool, float64, or string.
func scalar(s string) any {
	if len(s) >= 2 {
		if (s[0] == '"' && s[len(s)-1] == '"') || (s[0] == '\'' && s[len(s)-1] == '\'') {
			return s[1 : len(s)-1]
		}
	}
	switch s {
	case "true", "True":
		return true
	case "false", "False":
		return false
	case "null", "~":
		return nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f
	}
	return s
}
