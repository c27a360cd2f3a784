package colstore

// StrColumn is a dictionary-encoded string column: a uint32 code per row plus
// a shared dictionary of distinct strings. Thematic attributes such as OSM
// road classes and Urban Atlas nomenclature labels are highly repetitive, so
// dictionary encoding keeps them a few bytes per row — one of the columnar
// compression advantages the paper cites for the flat-table model (§3.1).
// It is not a Column: the vector tables read it by string or by code.
type StrColumn struct {
	codes []uint32
	dict  []string
	index map[string]uint32
}

// NewStrColumn returns an empty dictionary column.
func NewStrColumn() *StrColumn {
	return &StrColumn{index: make(map[string]uint32)}
}

// AppendString appends s, interning it in the dictionary.
func (c *StrColumn) AppendString(s string) {
	code, ok := c.index[s]
	if !ok {
		code = uint32(len(c.dict))
		c.dict = append(c.dict, s)
		c.index[s] = code
	}
	c.codes = append(c.codes, code)
}

// String returns the string at row i.
func (c *StrColumn) String(i int) string { return c.dict[c.codes[i]] }

// Code returns the dictionary code of s, and whether s occurs at all. A
// thematic equality filter resolves the constant once and then compares
// codes, never strings.
func (c *StrColumn) Code(s string) (uint32, bool) {
	code, ok := c.index[s]
	return code, ok
}

// Codes exposes the backing code slice for vectorised scans.
func (c *StrColumn) Codes() []uint32 { return c.codes }

// DictSize reports the number of distinct strings.
func (c *StrColumn) DictSize() int { return len(c.dict) }

// Bytes reports the code array plus dictionary payload.
func (c *StrColumn) Bytes() int {
	n := 4 * len(c.codes)
	for _, s := range c.dict {
		n += len(s)
	}
	return n
}
