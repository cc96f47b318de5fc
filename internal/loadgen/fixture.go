package loadgen

import (
	"fmt"

	"dais/internal/sqlengine"
)

// SeedEngine builds the canonical load-harness engine: a `data` table
// (id INTEGER PRIMARY KEY, payload VARCHAR(64), num DOUBLE) with an
// ordered index on id and `rows` sequential rows — the shape the
// StandardMix queries assume. The loadgen tests and daisbench's E17
// nodes share it so their capacity numbers describe the same data.
func SeedEngine(name string, rows int) *sqlengine.Engine {
	eng := sqlengine.New(name)
	eng.MustExec(`CREATE TABLE data (id INTEGER PRIMARY KEY, payload VARCHAR(64), num DOUBLE)`)
	eng.MustExec(`CREATE ORDERED INDEX data_id_ord ON data (id)`)
	sess := eng.NewSession()
	for i := 0; i < rows; i++ {
		if _, err := sess.Execute(`INSERT INTO data VALUES (?, ?, ?)`,
			sqlengine.NewInt(int64(i)),
			sqlengine.NewString(fmt.Sprintf("row-%06d-payload-abcdefghij", i)),
			sqlengine.NewDouble(float64(i)*1.5)); err != nil {
			panic(err)
		}
	}
	return eng
}
