package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// series is one sample line of a Prometheus text exposition.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// exposition is one scrape, keyed by the series' canonical text (name
// plus labels in sorted order).
type exposition map[string]series

// parseExposition reads the sample lines of a text exposition. Comment
// lines are skipped; label values may contain escaped quotes, commas and
// braces.
func parseExposition(text string) (exposition, error) {
	out := exposition{}
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parseSeries(line)
		if err != nil {
			return nil, fmt.Errorf("exposition line %d: %w", n+1, err)
		}
		out[s.key()] = s
	}
	return out, nil
}

func parseSeries(line string) (series, error) {
	s := series{labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	s.name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, " ,")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, `="`)
			if eq < 0 {
				return s, fmt.Errorf("malformed labels in %q", line)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			closed := false
			for j := 0; j < len(rest); j++ {
				c := rest[j]
				if c == '\\' && j+1 < len(rest) {
					j++
					switch rest[j] {
					case 'n':
						val.WriteByte('\n')
					default:
						val.WriteByte(rest[j])
					}
					continue
				}
				if c == '"' {
					rest = rest[j+1:]
					closed = true
					break
				}
				val.WriteByte(c)
			}
			if !closed {
				return s, fmt.Errorf("unterminated label value in %q", line)
			}
			s.labels[key] = val.String()
		}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("value of %q: %w", line, err)
	}
	s.value = v
	return s, nil
}

func (s series) key() string {
	keys := make([]string, 0, len(s.labels))
	for k := range s.labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(s.labels[k])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// delta returns after minus before, series by series. A series absent
// from before — a family or label set that first appeared during the
// interval — counts from zero.
func delta(before, after exposition) exposition {
	out := exposition{}
	for k, s := range after {
		d := s
		d.value -= before[k].value
		out[k] = d
	}
	return out
}

// sum adds the values of every series named name whose labels include
// all of the given key/value pairs.
func (e exposition) sum(name string, kv ...string) float64 {
	total := 0.0
	for _, s := range e {
		if s.name != name {
			continue
		}
		match := true
		for i := 0; i+1 < len(kv); i += 2 {
			if s.labels[kv[i]] != kv[i+1] {
				match = false
				break
			}
		}
		if match {
			total += s.value
		}
	}
	return total
}

// merge folds several processes' deltas into one by summing series with
// the same key.
func merge(es ...exposition) exposition {
	out := exposition{}
	for _, e := range es {
		for k, s := range e {
			m, ok := out[k]
			if !ok {
				m = s
				m.value = 0
			}
			m.value += s.value
			out[k] = m
		}
	}
	return out
}

// histMeanMS returns sum/count of a seconds histogram, in milliseconds,
// and the count; 0 when nothing was observed.
func (e exposition) histMeanMS(name string, kv ...string) (float64, float64) {
	count := e.sum(name+"_count", kv...)
	if count == 0 {
		return 0, 0
	}
	return e.sum(name+"_sum", kv...) / count * 1000, count
}
