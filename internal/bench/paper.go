package bench

import "xbench/internal/core"

// The paper's published measurements, transcribed from Tables 4-9 of
// Yao/Özsu/Khandelwal (ICDE 2004). Table 4 is in seconds, Tables 5-9 in
// milliseconds; for shape comparison only ratios matter, so the unit is
// kept as printed. A Blank cell marks a class/size combination the system
// could not host.

// Blank marks an unsupported cell in the paper's tables.
const Blank = -1

// PaperCell addresses one measurement: tables are keyed by table number,
// engine row name, class and size.
type PaperCell struct {
	Table  int
	Engine string
	Class  core.Class
	Size   core.Size
}

// paperRow is one engine row of one table: values in the paper's column
// order DC/SD S/N/L, DC/MD S/N/L, TC/SD S/N/L, TC/MD S/N/L.
type paperRow struct {
	engine string
	cells  [12]float64
}

var paperTables = map[int][]paperRow{
	4: {
		{"Xcolumn", [12]float64{Blank, Blank, Blank, 30, 417, 11532, Blank, Blank, Blank, 12, 85, 662}},
		{"Xcollection", [12]float64{34, Blank, Blank, 87, 1126, 31860, 46, Blank, Blank, 40, 124, 762}},
		{"SQL Server", [12]float64{43, 120, 770, 119, 1438, 39496, 55, 153, 960, 52, 148, 894}},
		{"X-Hive", [12]float64{9, 59, 517, 25, 304, 8568, 12, 72, 647, 7, 57, 512}},
	},
	5: {
		{"Xcolumn", [12]float64{Blank, Blank, Blank, 90, 1598, 9567, Blank, Blank, Blank, 10, 10, 15}},
		{"Xcollection", [12]float64{10, Blank, Blank, 10, 10, 15, 85, Blank, Blank, 20, 40, 65}},
		{"SQL Server", [12]float64{15, 20, 25, 10, 10, 20, 90, 594, 3754, 20, 45, 70}},
		{"X-Hive", [12]float64{10, 10, 20, 335, 7460, 213347, 20, 901, 30886, 30, 60, 80}},
	},
	6: {
		{"Xcolumn", [12]float64{Blank, Blank, Blank, 30, 1487, 7631, Blank, Blank, Blank, 15, 20, 25}},
		{"Xcollection", [12]float64{20, Blank, Blank, 10, 10, 15, 85, Blank, Blank, 70, 403, 3101}},
		{"SQL Server", [12]float64{20, 25, 30, 10, 10, 20, 90, 587, 3792, 80, 458, 3318}},
		{"X-Hive", [12]float64{30, 50, 50, 105, 911, 76280, 10, 201, 43294, 60, 165, 195}},
	},
	7: {
		{"Xcolumn", [12]float64{Blank, Blank, Blank, 10, 8649, 54287, Blank, Blank, Blank, 100, 856, 7859}},
		{"Xcollection", [12]float64{25, Blank, Blank, 20, 187, 1754, 90, Blank, Blank, 95, 592, 4418}},
		{"SQL Server", [12]float64{40, 304, 3194, 55, 216, 1918, 95, 675, 4654, 100, 634, 4593}},
		{"X-Hive", [12]float64{351, 4336, 49962, 140, 8512, 249809, 711, 9023, 127974, 20, 120, 1532}},
	},
	8: {
		{"Xcolumn", [12]float64{Blank, Blank, Blank, 20, 454, 1870, Blank, Blank, Blank, 25, 187, 422}},
		{"Xcollection", [12]float64{15, Blank, Blank, 10, 10, 15, 70, Blank, Blank, 10, 10, 15}},
		{"SQL Server", [12]float64{15, 20, 25, 10, 10, 20, 75, 436, 2537, 10, 10, 20}},
		{"X-Hive", [12]float64{10, 20, 20, 245, 5207, 168162, 10, 120, 48459, 10, 20, 50}},
	},
	9: {
		{"Xcolumn", [12]float64{Blank, Blank, Blank, 10, 143, 398, Blank, Blank, Blank, 25, 477, 1950}},
		{"Xcollection", [12]float64{30, Blank, Blank, 50, 1343, 12432, 55, Blank, Blank, 30, 165, 1685}},
		{"SQL Server", [12]float64{30, 223, 2386, 193, 1520, 14318, 55, 353, 2256, 40, 172, 1793}},
		{"X-Hive", [12]float64{90, 2693, 40398, 210, 9764, 248067, 171, 1372, 15032, 20, 20, 231}},
	},
}

// columnIndex maps (class, size) to the paper's 12-column layout: the
// classes in columnClasses order, three sizes each.
func columnIndex(class core.Class, size core.Size) int {
	for c, cc := range columnClasses {
		if cc == class {
			return c*3 + int(size)
		}
	}
	panic("bench: class outside the paper's tables")
}

// PaperValue returns the published number for a cell, or Blank when the
// paper's table leaves it empty. ok is false for unknown addresses.
func PaperValue(cell PaperCell) (val float64, ok bool) {
	rows, found := paperTables[cell.Table]
	if !found || cell.Size > core.Large {
		return 0, false
	}
	for _, r := range rows {
		if r.engine == cell.Engine {
			return r.cells[columnIndex(cell.Class, cell.Size)], true
		}
	}
	return 0, false
}

// PaperBlank reports whether the paper's table leaves the cell empty.
func PaperBlank(table int, engine string, class core.Class, size core.Size) bool {
	v, ok := PaperValue(PaperCell{table, engine, class, size})
	return ok && v == Blank
}
