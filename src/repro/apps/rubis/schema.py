"""RUBiS database schema.

Follows the original RUBiS MySQL schema (categories, regions, users,
items, bids, comments, buy_now), trimmed to the columns the 26
interactions actually touch.  Secondary indexes mirror the columns the
original schema indexes (foreign keys used by the hot queries).
"""

from __future__ import annotations

from repro.db import Column, ColumnType, Database, TableSchema

INT = ColumnType.INT
FLOAT = ColumnType.FLOAT
VARCHAR = ColumnType.VARCHAR
DATETIME = ColumnType.DATETIME


def create_rubis_schema(db: Database) -> None:
    """Create every RUBiS table in ``db``."""
    db.create_table(
        TableSchema(
            "categories",
            [Column("id", INT), Column("name", VARCHAR)],
            primary_key="id",
        )
    )
    db.create_table(
        TableSchema(
            "regions",
            [Column("id", INT), Column("name", VARCHAR)],
            primary_key="id",
        )
    )
    db.create_table(
        TableSchema(
            "users",
            [
                Column("id", INT),
                Column("firstname", VARCHAR),
                Column("lastname", VARCHAR),
                Column("nickname", VARCHAR),
                Column("password", VARCHAR),
                Column("email", VARCHAR),
                Column("rating", INT),
                Column("balance", FLOAT),
                Column("creation_date", DATETIME),
                Column("region", INT),
            ],
            primary_key="id",
            indexes=["region", "nickname"],
        )
    )
    db.create_table(
        TableSchema(
            "items",
            [
                Column("id", INT),
                Column("name", VARCHAR),
                Column("description", VARCHAR),
                Column("initial_price", FLOAT),
                Column("quantity", INT),
                Column("reserve_price", FLOAT),
                Column("buy_now", FLOAT),
                Column("nb_of_bids", INT),
                Column("max_bid", FLOAT),
                Column("start_date", DATETIME),
                Column("end_date", DATETIME),
                Column("seller", INT),
                Column("category", INT),
            ],
            primary_key="id",
            indexes=["seller", "category"],
        )
    )
    db.create_table(
        TableSchema(
            "old_items",
            [
                Column("id", INT),
                Column("name", VARCHAR),
                Column("description", VARCHAR),
                Column("initial_price", FLOAT),
                Column("quantity", INT),
                Column("reserve_price", FLOAT),
                Column("buy_now", FLOAT),
                Column("nb_of_bids", INT),
                Column("max_bid", FLOAT),
                Column("start_date", DATETIME),
                Column("end_date", DATETIME),
                Column("seller", INT),
                Column("category", INT),
            ],
            primary_key="id",
            indexes=["seller", "category"],
        )
    )
    db.create_table(
        TableSchema(
            "bids",
            [
                Column("id", INT),
                Column("user_id", INT),
                Column("item_id", INT),
                Column("qty", INT),
                Column("bid", FLOAT),
                Column("max_bid", FLOAT),
                Column("date", DATETIME),
            ],
            primary_key="id",
            indexes=["item_id", "user_id"],
        )
    )
    db.create_table(
        TableSchema(
            "comments",
            [
                Column("id", INT),
                Column("from_user_id", INT),
                Column("to_user_id", INT),
                Column("item_id", INT),
                Column("rating", INT),
                Column("date", DATETIME),
                Column("comment", VARCHAR),
            ],
            primary_key="id",
            indexes=["to_user_id", "item_id", "from_user_id"],
        )
    )
    db.create_table(
        TableSchema(
            "buy_now",
            [
                Column("id", INT),
                Column("buyer_id", INT),
                Column("item_id", INT),
                Column("qty", INT),
                Column("date", DATETIME),
            ],
            primary_key="id",
            indexes=["buyer_id", "item_id"],
        )
    )
