let all =
  [
    ("safecast", ("SafeCast", Safecast.queries));
    ("nullderef", ("NullDeref", Nullderef.queries));
    ("factorym", ("FactoryM", Factorym.queries));
    ("devirt", ("Devirt", Devirt.queries));
  ]
