//! The Employees sample database (after MySQL's Employees Sample Database,
//! which the paper uses; §6.1). The schema matches the table/attribute names
//! appearing in the paper's Table 6 queries; the instance is deterministic
//! synthetic data that plants every value those queries mention, so the
//! user-study workload returns non-empty results.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use speakql_db::{Column, Database, Date, Table, TableSchema, Value, ValueType};

/// First names include every name Table 6 mentions.
pub const FIRST_NAMES: &[&str] = &[
    "Karsten",
    "Tomokazu",
    "Goh",
    "Narain",
    "Perla",
    "Shimshon",
    "Georgi",
    "Bezalel",
    "Parto",
    "Chirstian",
    "Kyoichi",
    "Anneke",
    "Sumant",
    "Duangkaew",
    "Mary",
    "Patricio",
    "Eberhardt",
    "Otmar",
    "Florian",
    "Mayuko",
    "Ramzi",
    "Premal",
    "Zvonko",
    "Kazuhito",
    "Lillian",
    "Sudharsan",
    "Kendra",
    "Berni",
    "Guoxiang",
    "Cristinel",
    "Kazuhide",
    "Lee",
    "Tse",
    "Mokhtar",
    "Gao",
    "Erez",
    "Mona",
    "Danel",
    "Jon",
    "Marla",
    "Hilari",
    "Teiji",
    "Mayumi",
    "Gino",
    "Luisa",
    "Sanjiv",
    "Rebecka",
    "Mihalis",
    "Jeong",
    "Alain",
];

/// Last names.
pub const LAST_NAMES: &[&str] = &[
    "Facello",
    "Simmel",
    "Bamford",
    "Koblick",
    "Maliniak",
    "Preusig",
    "Zielinski",
    "Kalloufi",
    "Peac",
    "Piveteau",
    "Sluis",
    "Bridgland",
    "Terkki",
    "Genin",
    "Nooteboom",
    "Cappelletti",
    "Bouloucos",
    "Peha",
    "Haddadi",
    "Baek",
    "Pettey",
    "Heyers",
    "Berztiss",
    "Delgrande",
    "Babb",
    "Lortz",
    "Zschoche",
    "Schusler",
    "Stamatiou",
    "Brender",
];

/// Department names.
pub const DEPARTMENTS: &[(&str, &str)] = &[
    ("d001", "Marketing"),
    ("d002", "Finance"),
    ("d003", "Human Resources"),
    ("d004", "Production"),
    ("d005", "Development"),
    ("d006", "Quality Management"),
    ("d007", "Sales"),
    ("d008", "Research"),
    ("d009", "Customer Service"),
];

/// Job titles (the Table 6 query Q10 filters `title = 'Engineer'`).
pub const TITLES: &[&str] = &[
    "Engineer",
    "Senior Engineer",
    "Staff",
    "Senior Staff",
    "Manager",
    "Technique Leader",
    "Assistant Engineer",
];

/// Number of employees in the synthetic instance.
pub const N_EMPLOYEES: usize = 300;

/// Build the deterministic Employees database.
pub fn employees_db() -> Database {
    let mut rng = ChaCha8Rng::seed_from_u64(0xE4410);
    let mut db = Database::new("Employees");

    // Every call passes a month in 1..=12 and a day in 1..=28 or a fixed
    // valid date, so the fields need no validation.
    let date = |year: i32, month: u8, day: u8| Value::Date(Date { year, month, day });
    let rand_date = |rng: &mut ChaCha8Rng, lo: i32, hi: i32| {
        let y = rng.gen_range(lo..=hi);
        let m = rng.gen_range(1u8..=12);
        let d = rng.gen_range(1u8..=28);
        date(y, m, d)
    };

    // --- Employees ---------------------------------------------------------
    let mut employees = Table::new(TableSchema::new(
        "Employees",
        vec![
            Column::new("EmployeeNumber", ValueType::Int),
            Column::new("BirthDate", ValueType::Date),
            Column::new("FirstName", ValueType::Text),
            Column::new("LastName", ValueType::Text),
            Column::new("Gender", ValueType::Text),
            Column::new("HireDate", ValueType::Date),
        ],
    ));
    for i in 0..N_EMPLOYEES {
        let first = FIRST_NAMES[i % FIRST_NAMES.len()];
        let last = LAST_NAMES[rng.gen_range(0..LAST_NAMES.len())];
        let gender = if rng.gen_bool(0.5) { "M" } else { "F" };
        // Plant the Table 6 hire date on several employees.
        let hire = if i % 29 == 0 {
            date(1996, 5, 10)
        } else {
            rand_date(&mut rng, 1985, 2000)
        };
        employees.push_row(vec![
            Value::Int(10001 + i as i64),
            rand_date(&mut rng, 1952, 1975),
            Value::Text(first.to_string()),
            Value::Text(last.to_string()),
            Value::Text(gender.to_string()),
            hire,
        ]);
    }
    db.add_table(employees);

    // --- Departments -------------------------------------------------------
    let mut departments = Table::new(TableSchema::new(
        "Departments",
        vec![
            Column::new("DepartmentNumber", ValueType::Text),
            Column::new("DepartmentName", ValueType::Text),
        ],
    ));
    for (num, name) in DEPARTMENTS {
        departments.push_row(vec![
            Value::Text(num.to_string()),
            Value::Text(name.to_string()),
        ]);
    }
    db.add_table(departments);

    // --- DepartmentEmployee -------------------------------------------------
    let mut dept_emp = Table::new(TableSchema::new(
        "DepartmentEmployee",
        vec![
            Column::new("EmployeeNumber", ValueType::Int),
            Column::new("DepartmentNumber", ValueType::Text),
            Column::new("FromDate", ValueType::Date),
            Column::new("ToDate", ValueType::Date),
        ],
    ));
    for i in 0..N_EMPLOYEES {
        let dept = DEPARTMENTS[rng.gen_range(0..DEPARTMENTS.len())].0;
        // Plant the Table 6 d002 membership and the 1993-01-20 start date.
        let dept = if i % 13 == 0 { "d002" } else { dept };
        let from = if i % 17 == 0 {
            date(1993, 1, 20)
        } else {
            rand_date(&mut rng, 1986, 2001)
        };
        dept_emp.push_row(vec![
            Value::Int(10001 + i as i64),
            Value::Text(dept.to_string()),
            from,
            rand_date(&mut rng, 2002, 2010),
        ]);
    }
    db.add_table(dept_emp);

    // --- DepartmentManager ---------------------------------------------------
    let mut dept_mgr = Table::new(TableSchema::new(
        "DepartmentManager",
        vec![
            Column::new("EmployeeNumber", ValueType::Int),
            Column::new("DepartmentNumber", ValueType::Text),
            Column::new("FromDate", ValueType::Date),
            Column::new("ToDate", ValueType::Date),
        ],
    ));
    // Managers: a deterministic subset of employees (ensures Karsten et al.
    // appear since first names repeat cyclically).
    for i in (0..N_EMPLOYEES).step_by(11) {
        dept_mgr.push_row(vec![
            Value::Int(10001 + i as i64),
            Value::Text(DEPARTMENTS[i % DEPARTMENTS.len()].0.to_string()),
            rand_date(&mut rng, 1988, 2000),
            rand_date(&mut rng, 2001, 2010),
        ]);
    }
    db.add_table(dept_mgr);

    // --- Salaries ------------------------------------------------------------
    let mut salaries = Table::new(TableSchema::new(
        "Salaries",
        vec![
            Column::new("EmployeeNumber", ValueType::Int),
            Column::new("salary", ValueType::Int),
            Column::new("FromDate", ValueType::Date),
            Column::new("ToDate", ValueType::Date),
        ],
    ));
    for i in 0..N_EMPLOYEES {
        let salary = 40_000 + (rng.gen_range(0..900) * 100) as i64;
        let from = match i % 23 {
            0 => date(1993, 1, 20), // Q5
            1 => date(1990, 3, 20), // Q7
            _ => rand_date(&mut rng, 1986, 2001),
        };
        let to = if i % 19 == 0 {
            date(2001, 10, 9) // Q10 ToDate
        } else {
            rand_date(&mut rng, 2002, 2010)
        };
        salaries.push_row(vec![
            Value::Int(10001 + i as i64),
            Value::Int(salary),
            from,
            to,
        ]);
    }
    db.add_table(salaries);

    // --- Titles ---------------------------------------------------------------
    let mut titles = Table::new(TableSchema::new(
        "Titles",
        vec![
            Column::new("EmployeeNumber", ValueType::Int),
            Column::new("title", ValueType::Text),
            Column::new("FromDate", ValueType::Date),
            Column::new("ToDate", ValueType::Date),
        ],
    ));
    for i in 0..N_EMPLOYEES {
        let title = TITLES[rng.gen_range(0..TITLES.len())];
        let to = if i % 19 == 0 {
            date(2001, 10, 9)
        } else {
            rand_date(&mut rng, 2002, 2010)
        };
        titles.push_row(vec![
            Value::Int(10001 + i as i64),
            Value::Text(title.to_string()),
            rand_date(&mut rng, 1986, 2001),
            to,
        ]);
    }
    db.add_table(titles);

    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use speakql_db::execute_sql;

    #[test]
    fn deterministic() {
        assert_eq!(employees_db(), employees_db());
    }

    #[test]
    fn has_six_tables() {
        let db = employees_db();
        assert_eq!(db.tables.len(), 6);
        assert_eq!(
            db.table("employees").map(|t| t.rows.len()),
            Some(N_EMPLOYEES)
        );
    }

    #[test]
    fn table6_queries_return_rows() {
        let db = employees_db();
        let queries = [
            "SELECT AVG ( salary ) FROM Salaries",
            "SELECT LastName FROM Employees NATURAL JOIN Salaries WHERE salary > 70000",
            "SELECT FromDate FROM DepartmentEmployee WHERE DepartmentNumber = 'd002'",
            "SELECT FromDate FROM Employees NATURAL JOIN DepartmentManager WHERE FirstName = 'Karsten' ORDER BY HireDate",
            "SELECT SUM ( salary ) FROM Salaries WHERE FromDate = '1993-01-20'",
            "SELECT ToDate , COUNT ( salary ) FROM Salaries GROUP BY ToDate",
        ];
        for q in queries {
            let Ok(r) = execute_sql(&db, q) else {
                panic!("{q} does not execute");
            };
            assert!(!r.rows.is_empty(), "no rows for: {q}");
        }
    }

    #[test]
    fn string_values_present_for_phonetics() {
        let db = employees_db();
        let strings = db.string_attribute_values();
        assert!(strings.iter().any(|s| s == "Karsten"));
        assert!(strings.iter().any(|s| s == "Engineer"));
        assert!(strings.iter().any(|s| s == "d002"));
    }
}
