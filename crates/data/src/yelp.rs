//! A Yelp-like database (after the Yelp Open Dataset the paper uses as its
//! *unseen-schema* test bed, §6.1). The ASR profile is never trained on this
//! schema, which is what drives the paper's lower Yelp literal recall.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use speakql_db::{Column, Database, Date, Table, TableSchema, Value, ValueType};

/// Business names: multi-word, open-vocabulary — the hard case for ASR.
pub const BUSINESS_NAMES: &[&str] = &[
    "Golden Dragon Noodle House",
    "Desert Bloom Cafe",
    "Pita Jungle",
    "Lucky Strike Lanes",
    "The Grand Bistro",
    "Copper Kettle Diner",
    "Sunrise Bakery",
    "Bamboo Garden",
    "Cactus Flower Grill",
    "Maple Leaf Pancakes",
    "Iron Horse Saloon",
    "Velvet Taco",
    "Blue Agave Cantina",
    "Crimson Cup Coffee",
    "Silver Spoon Thai",
    "Prickly Pear Smoothies",
    "Painted Desert Pizza",
    "Canyon Creek Steakhouse",
    "Mesa Verde Tacos",
    "Saguaro Sushi",
    "Tumbleweed Tavern",
    "Quartz Mountain Deli",
    "Ocotillo Oyster Bar",
    "Javelina Java",
    "Roadrunner Ramen",
    "Gila Bend Grill",
    "Palo Verde Pho",
    "Dusty Trail Donuts",
    "Vulture Peak Vegan",
    "Chuckwalla Chili",
];

/// Cities and their states.
pub const CITIES: &[(&str, &str)] = &[
    ("Phoenix", "AZ"),
    ("Scottsdale", "AZ"),
    ("Tempe", "AZ"),
    ("Mesa", "AZ"),
    ("Chandler", "AZ"),
    ("Las Vegas", "NV"),
    ("Henderson", "NV"),
    ("Charlotte", "NC"),
    ("Pittsburgh", "PA"),
    ("Madison", "WI"),
    ("Cleveland", "OH"),
    ("Toronto", "ON"),
];

/// User names.
pub const USER_NAMES: &[&str] = &[
    "Aisha", "Brandon", "Carmen", "Dmitri", "Elena", "Farid", "Gretchen", "Hiro", "Ingrid",
    "Jamal", "Keiko", "Lorenzo", "Miriam", "Nadia", "Owen", "Priya", "Quentin", "Rosa", "Stefan",
    "Tara", "Umar", "Violet", "Wendell", "Ximena", "Yusuf", "Zelda",
];

/// Businesses generated into the `business` table.
pub const N_BUSINESSES: usize = 30;
/// Users generated into the `users` table (one per name above).
pub const N_USERS: usize = 26;
/// Reviews generated into the `review` table.
pub const N_REVIEWS: usize = 400;

/// Build the deterministic Yelp-like database.
pub fn yelp_db() -> Database {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7E19);
    let mut db = Database::new("Yelp");

    // Days stop at 28, so every drawn (month, day) is a valid date.
    let rand_date = |rng: &mut ChaCha8Rng, lo: i32, hi: i32| {
        Value::Date(Date {
            year: rng.gen_range(lo..=hi),
            month: rng.gen_range(1..=12),
            day: rng.gen_range(1..=28),
        })
    };

    let mut business = Table::new(TableSchema::new(
        "Business",
        vec![
            Column::new("BusinessId", ValueType::Int),
            Column::new("Name", ValueType::Text),
            Column::new("City", ValueType::Text),
            Column::new("State", ValueType::Text),
            Column::new("Stars", ValueType::Float),
            Column::new("ReviewCount", ValueType::Int),
        ],
    ));
    for (i, name) in BUSINESS_NAMES.iter().take(N_BUSINESSES).enumerate() {
        let (city, state) = CITIES[rng.gen_range(0..CITIES.len())];
        business.push_row(vec![
            Value::Int(1 + i as i64),
            Value::Text(name.to_string()),
            Value::Text(city.to_string()),
            Value::Text(state.to_string()),
            Value::Float((rng.gen_range(2..=10) as f64) / 2.0),
            Value::Int(rng.gen_range(5..900)),
        ]);
    }
    db.add_table(business);

    let mut user = Table::new(TableSchema::new(
        "YelpUser",
        vec![
            Column::new("UserId", ValueType::Int),
            Column::new("UserName", ValueType::Text),
            Column::new("UserReviewCount", ValueType::Int),
            Column::new("YelpingSince", ValueType::Date),
        ],
    ));
    for (i, name) in USER_NAMES.iter().take(N_USERS).enumerate() {
        user.push_row(vec![
            Value::Int(100 + i as i64),
            Value::Text(name.to_string()),
            Value::Int(rng.gen_range(1..500)),
            rand_date(&mut rng, 2006, 2018),
        ]);
    }
    db.add_table(user);

    let mut review = Table::new(TableSchema::new(
        "Review",
        vec![
            Column::new("ReviewId", ValueType::Int),
            Column::new("BusinessId", ValueType::Int),
            Column::new("UserId", ValueType::Int),
            Column::new("ReviewStars", ValueType::Int),
            Column::new("ReviewDate", ValueType::Date),
        ],
    ));
    for i in 0..N_REVIEWS {
        review.push_row(vec![
            Value::Int(1000 + i as i64),
            Value::Int(1 + rng.gen_range(0..N_BUSINESSES) as i64),
            Value::Int(100 + rng.gen_range(0..N_USERS) as i64),
            Value::Int(rng.gen_range(1..=5)),
            rand_date(&mut rng, 2010, 2019),
        ]);
    }
    db.add_table(review);

    let mut tip = Table::new(TableSchema::new(
        "Tip",
        vec![
            Column::new("UserId", ValueType::Int),
            Column::new("BusinessId", ValueType::Int),
            Column::new("TipDate", ValueType::Date),
            Column::new("ComplimentCount", ValueType::Int),
        ],
    ));
    for _ in 0..150 {
        tip.push_row(vec![
            Value::Int(100 + rng.gen_range(0..N_USERS) as i64),
            Value::Int(1 + rng.gen_range(0..N_BUSINESSES) as i64),
            rand_date(&mut rng, 2012, 2019),
            Value::Int(rng.gen_range(0..40)),
        ]);
    }
    db.add_table(tip);

    let mut checkin = Table::new(TableSchema::new(
        "Checkin",
        vec![
            Column::new("BusinessId", ValueType::Int),
            Column::new("CheckinDate", ValueType::Date),
            Column::new("CheckinCount", ValueType::Int),
        ],
    ));
    for _ in 0..200 {
        checkin.push_row(vec![
            Value::Int(1 + rng.gen_range(0..N_BUSINESSES) as i64),
            rand_date(&mut rng, 2014, 2019),
            Value::Int(rng.gen_range(1..120)),
        ]);
    }
    db.add_table(checkin);

    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use speakql_db::execute_sql;

    #[test]
    fn deterministic() {
        assert_eq!(yelp_db(), yelp_db());
    }

    #[test]
    fn five_tables_with_rows() {
        let db = yelp_db();
        assert_eq!(db.tables.len(), 5);
        for t in &db.tables {
            assert!(!t.rows.is_empty(), "{} is empty", t.schema.name);
        }
    }

    #[test]
    fn joinable_on_shared_keys() {
        let db = yelp_db();
        let Ok(r) = execute_sql(
            &db,
            "SELECT Name , ReviewStars FROM Business NATURAL JOIN Review WHERE ReviewStars > 4",
        ) else {
            panic!("the join does not execute");
        };
        assert!(!r.rows.is_empty());
    }

    #[test]
    fn multiword_values_exist() {
        let db = yelp_db();
        assert!(db.string_attribute_values().iter().any(|s| s.contains(' ')));
    }
}
