package core

import "fmt"

// Validate checks the database's structural integrity: every VDC must have
// a unique, non-empty CVE name. Save and LoadDatabase both call this; a
// failure names the offending entry.
func (db *Database) Validate() error {
	seen := make(map[string]int, len(db.VDCs))
	for i, v := range db.VDCs {
		if v.CVE == "" {
			return fmt.Errorf("VDC entry %d has an empty CVE name", i)
		}
		if j, dup := seen[v.CVE]; dup {
			return fmt.Errorf("duplicate VDC name %q (entries %d and %d)", v.CVE, j, i)
		}
		seen[v.CVE] = i
	}
	return nil
}
