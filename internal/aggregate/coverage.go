package aggregate

import (
	"encoding/binary"
	"math"
	"strings"

	"repro/internal/interval"
)

// DataSource supplies the database-content geometry needed for the coverage
// statistics of Table 1. It is implemented by the in-memory database
// substrate; the paper obtained the same numbers by sampling SkyServer.
type DataSource interface {
	// ContentInterval returns content(a) for a numeric column.
	ContentInterval(column string) (interval.Interval, bool)
	// ContentValues returns the content value set of a categorical column.
	ContentValues(column string) ([]string, bool)
	// ObjectFraction returns n_access / n_content: the fraction of the
	// objects of the given relations falling inside box and matching the
	// categorical equalities. For multi-relation areas the fraction refers
	// to the universal relation (product space).
	ObjectFraction(relations []string, box *interval.Box, categorical map[string][]string) float64
}

// ComputeCoverage fills AreaCoverage (v_access / v_content) and
// ObjectCoverage (n_access / n_content) per Section 6.2.
func (s *Summary) ComputeCoverage(src DataSource) {
	area := 1.0
	constrained := false
	for _, col := range s.Box.Dims() {
		content, ok := src.ContentInterval(col)
		if !ok || content.IsEmpty() {
			continue
		}
		constrained = true
		inter := s.Box.Get(col).Intersect(content)
		if inter.IsEmpty() {
			area = 0
			break
		}
		if w := content.Width(); w > 0 {
			area *= inter.Width() / w
		}
	}
	if area != 0 {
		for col, vals := range s.Categorical {
			contentVals, ok := src.ContentValues(col)
			if !ok || len(contentVals) == 0 {
				continue
			}
			constrained = true
			// SkyServer's SQL Server collation is case-insensitive, so
			// 'star' matches content value 'STAR'.
			contentSet := make(map[string]struct{}, len(contentVals))
			for _, v := range contentVals {
				contentSet[strings.ToUpper(v)] = struct{}{}
			}
			// Both sides of the ratio count case-folded DISTINCT values: the
			// old raw len(contentVals) divisor understated coverage when
			// content values differed only by case.
			matched := make(map[string]struct{})
			for _, v := range vals {
				u := strings.ToUpper(v)
				if _, ok := contentSet[u]; ok {
					matched[u] = struct{}{}
				}
			}
			if len(matched) == 0 {
				area = 0
				break
			}
			area *= float64(len(matched)) / float64(len(contentSet))
		}
	}
	if !constrained {
		area = 1
	}
	s.AreaCoverage = area
	s.ObjectCoverage = src.ObjectFraction(s.Relations, s.Box, s.Categorical)
}

// CoverageKey identifies a summary by exactly what ComputeCoverage reads:
// its relations, each box dimension's column with the bits of its bounds
// and its open flags, and each categorical column with its values. Two
// summaries with one key get the same coverage from one data source, so a
// caller may carry a computed coverage over to any summary with its key
// while the source stays unchanged. Expr is no such key: it formats the
// bounds, which can merge distinct floats. Every string is behind its
// length, so no two inputs share a key.
func (s *Summary) CoverageKey() string {
	var b []byte
	str := func(v string) {
		b = binary.AppendUvarint(b, uint64(len(v)))
		b = append(b, v...)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Relations)))
	for _, r := range s.Relations {
		str(r)
	}
	dims := s.Box.Dims()
	b = binary.AppendUvarint(b, uint64(len(dims)))
	for _, col := range dims {
		iv := s.Box.Get(col)
		str(col)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(iv.Lo))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(iv.Hi))
		var open byte
		if iv.LoOpen {
			open |= 1
		}
		if iv.HiOpen {
			open |= 2
		}
		b = append(b, open)
	}
	cols := sortedKeys(s.Categorical)
	b = binary.AppendUvarint(b, uint64(len(cols)))
	for _, col := range cols {
		str(col)
		vals := s.Categorical[col]
		b = binary.AppendUvarint(b, uint64(len(vals)))
		for _, v := range vals {
			str(v)
		}
	}
	return string(b)
}
