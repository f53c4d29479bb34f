"""Output checks shared by the workloads."""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.api.schema import (
    SchemaValidationError,
    load_schema,
    validate_query_result,
    validate_subset,
)


class EnvelopeValidator:
    """Validates every v2 ``QueryResult`` payload against its schema.

    The first payload goes through :func:`validate_query_result` itself.
    That function rebuilds a ``jsonschema`` validator per call (~80 ms per
    envelope, 16x a warm corpus query), so the rest go through one
    validator built once from the same schema file.
    """

    def __init__(self) -> None:
        schema = load_schema("query_result.v2.json")
        self._validate: Callable[[Dict[str, Any]], None]
        try:
            import jsonschema
        except ImportError:
            self._validate = lambda payload: validate_subset(payload, schema)
        else:
            validator = jsonschema.validators.validator_for(schema)(schema)

            def validate(payload: Dict[str, Any]) -> None:
                try:
                    validator.validate(payload)
                except jsonschema.ValidationError as error:
                    raise SchemaValidationError(error.message) from error

            self._validate = validate
        self._first = True

    def __call__(self, payload: Dict[str, Any]) -> None:
        if self._first:
            self._first = False
            validate_query_result(payload)
        else:
            self._validate(payload)
